"""numpy loads only in a process that computes with an array.

The test process itself imports numpy, so each check runs the CLI in a
fresh interpreter and asks it whether ``numpy.linalg`` (which numpy's
own import pulls in) reached ``sys.modules``. That interpreter cannot
import click, so each check also shows that the CLI runs without it.
``logging`` and ``statistics`` serve one rare call each, so they are
imported at that call, and a fresh interpreter that loads a config loads
neither.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from conftest import run_cli, run_full_pipeline, tree_digests, write_pipeline_tree
from test_output_tree import GOLDEN

import domainport
from domainport import cli
from domainport import lazy

SRC = Path(domainport.__file__).resolve().parent.parent

# runs each argv through the CLI in one interpreter; the last stdout line reports
PROBE = """\
import json, sys
sys.modules["click"] = None
from domainport.cli import load_config, main
if sys.argv[2]:
    load_config(sys.argv[2])
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy_loaded": "numpy.linalg" in sys.modules}))
"""

STAGES = tuple(cli.STAGES)


def fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports domainport from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120, env=env,
                          check=True)


def probe(*argvs: list[str], config: Path | None = None) -> tuple[list[int], bool]:
    """Exit codes of ``argvs`` run in a fresh interpreter, and whether numpy was loaded."""
    done = fresh_interpreter(PROBE, json.dumps(argvs), str(config or ""))
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], result["numpy_loaded"]


def stage_argvs(config: Path, stages: tuple[str, ...] = STAGES) -> list[list[str]]:
    return [[stage, "--config", str(config)] for stage in stages]


def test_importing_the_cli_and_loading_a_config_does_not_load_numpy(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert probe(config=config) == ([], False)


def test_importing_the_cli_and_loading_a_config_loads_neither_logging_nor_statistics(tmp_path):
    config = write_pipeline_tree(tmp_path)
    code = ("import sys\nfrom domainport.cli import load_config\nload_config(sys.argv[1])\n"
            "print(sorted({'logging', 'statistics'} & set(sys.modules)))")
    assert fresh_interpreter(code, str(config)).stdout.splitlines()[-1] == "[]"


def test_help_does_not_load_numpy():
    assert probe(["--help"]) == ([0], False)


def test_cold_transport_does_not_load_numpy(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert probe(*stage_argvs(config, ("transport",))) == ([0], False)
    assert (tmp_path / "out" / "transport.json").is_file()


def test_cold_report_and_predict_do_not_load_numpy(tmp_path):
    config = write_pipeline_tree(tmp_path)
    for stage in STAGES[:-1]:
        assert run_cli([stage, "--config", str(config)])[0] == 0
    assert probe(*stage_argvs(config, ("report",))) == ([0], False)
    assert (tmp_path / "out" / "report.json").is_file()
    model = tmp_path / "out" / "fit-alpha-sys-cosine.json"
    assert probe(["predict", "--model", str(model), "--x", "0.3"]) == ([0], False)


def test_a_warm_pass_does_not_load_numpy(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    assert probe(*stage_argvs(config)) == ([0] * len(STAGES), False)


def test_a_cold_pass_loads_numpy_and_writes_the_golden_tree(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert probe(*stage_argvs(config)) == ([0] * len(STAGES), True)
    assert tree_digests(tmp_path / "out") == GOLDEN


def test_the_lazy_numpy_is_the_imported_module():
    assert lazy.np is sys.modules["numpy"]
    assert lazy.np.float64 is numpy.float64


def test_a_missing_module_fails_at_import_time():
    with pytest.raises(ModuleNotFoundError, match="domainport_no_such_module"):
        lazy._lazy_module("domainport_no_such_module")
    assert "domainport_no_such_module" not in sys.modules

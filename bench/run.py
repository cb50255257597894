"""Benchmark of the five-stage domainport pipeline.

    python3 bench/run.py --workload ingest-heavy --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each
    python -m pytest bench/tests             # the benchmark's own tests

Run from anywhere; the package is imported from ``src/`` next to this
directory. For one workload the script generates seeded inputs under
``.bench_work/``, times ``setup_s`` in fresh interpreters, then repeats
iterations (a cold pass of ``ingest``, ``similarity``, ``transport``,
``fit`` and ``report`` on an empty output directory, then a warm pass)
for ``--seconds`` and checks every output.

With ``--trace 0`` it reports the end-to-end metrics. Their times are the
median process CPU time in reference seconds (see ``calibration.py``),
which stays steady when a shared machine's speed drifts. With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics (span times in wall seconds, and counts) and the tracing
overhead. The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (stage invocations) and
``metrics``. A run record (machine, code, workload shape, every sample
and metric) and, when traced, the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
NPROC = os.cpu_count() or 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# a fresh interpreter imports the CLI and loads the config, as every invocation does
SETUP_CODE = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
from domainport.cli import load_config
load_config(sys.argv[2])
print(time.process_time() - start)
"""


def _cap_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= NPROC:
            os.environ[var] = str(NPROC)


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """(CPU seconds of import + load_config in a fresh interpreter, yardstick) samples.

    The yardstick runs in this process, idle while the child runs, just
    before and after each child; a fresh interpreter's own is too noisy.
    """
    from calibration import yardstick

    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one may compile bytecode; it is dropped
        before = yardstick()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append((float(done.stdout), (before + yardstick()) / 2))
    return samples


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_and_code() -> dict:
    import numpy

    return {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import harness
    from workloads import WORKLOADS, generate

    shape = WORKLOADS[workload]
    label = f"{workload}-s{seed}-t{int(trace)}"
    work = WORK / f"{label}-p{os.getpid()}"
    started = time.perf_counter()
    try:
        wl = generate(shape, seed, work / "input")
        setup_samples = measure_setup(wl.config)
        m = harness.measure(wl, work, seconds, trace, label)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics = harness.per_layer(m) if trace else harness.end_to_end(m, setup_samples, peak)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    failures = [f"{i}: {p}/{s}: {msg}" for i, it in enumerate(m.iterations) for p, s, msg in it.failures]
    record = {
        "workload": wl.summary(),
        "why": shape.why,
        "seconds": seconds,
        "trace": trace,
        "iterations": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "setup_samples": setup_samples,  # (CPU seconds, yardstick)
        "samples": {
            kind: {f"{p}_{attr}": [getattr(getattr(it, p), attr) for it in its] for p in harness.PASSES
                   for attr in ("seconds", "cpu_seconds", "yardsticks")}
            for kind, its in (("untraced", m.untraced), ("traced", m.traced))
        },
        "wall_s": time.perf_counter() - started,
        "machine_and_code": machine_and_code(),
        "metrics": reported,
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if m.tracer is not None:
        m.tracer.write(OUT / f"trace-{label}.jsonl")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    print(f"{workload}: failed_frac {m.failed / m.attempted:.4f} frac ({m.failed} of {m.attempted} stage invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} {value:.6g} {unit}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": reported}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table of their results, then one JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: run failed with exit code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domainport" / "__init__.py").is_file():
        print(f"error: no domainport package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    _cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

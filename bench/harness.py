"""Runs the pipeline in process and turns passes into metrics.

One iteration is a cold pass (the five stages on an empty output
directory) followed by a warm pass (the same stages again, every corpus a
cache hit). Stages are called through ``domainport.cli.main``, as the
command line would call them, with their output captured.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from domainport import cli

import calibration
import checks
from tracing import STAGES, Tracer, instrumented, is_instrumented
from workloads import Workload

PASSES = ("cold", "warm")

# per-layer metric -> unit, reported per pass; the names are Tracer.layer_totals keys,
# except features.count_s, the self time of build_profile (feature counting)
LAYER_UNITS = {
    "corpus.parse_s": "s",
    "corpus.documents": "count",
    "corpus.tokens": "count",
    "features.build_profile_s": "s",
    "features.count_s": "s",
    "features.embed_s": "s",
    "features.embed_calls": "count",
    "features.distinct_features": "count",
    "features.profile_load_s": "s",
    "hashing.input_hash_s": "s",
    "hashing.input_bytes": "bytes",
    "divergence.similarity_table_s": "s",
    "divergence.records": "count",
    "transport.load_table_s": "s",
    "transport.table_rows": "count",
    "transport.lookup_s": "s",
    "transport.lookups": "count",
    "transport.build_report_s": "s",
    "regression.fit_s": "s",
    "regression.fits": "count",
    "regression.polish_steps": "count",
    "regression.curve_s": "s",
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    **{f"cli.{stage}.self_s": "s" for stage in STAGES},
    "cli.bytes_written": "bytes",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
}
# reported for the cold pass only: on some workload the warm pass never does this work, and a
# time stuck at zero measures nothing (tfidf's warm re-embedding shows in
# divergence.similarity_table_s.warm and features.embed_calls.warm)
COLD_ONLY = {
    "corpus.parse_s", "corpus.documents", "corpus.tokens", "features.build_profile_s",
    "features.count_s", "features.embed_s", "features.distinct_features",
}
PER_LAYER_UNITS = {
    f"{name}.{pass_}": unit
    for name, unit in LAYER_UNITS.items()
    for pass_ in PASSES
    if pass_ == "cold" or name not in COLD_ONLY
}
PER_LAYER_UNITS["trace.overhead_s"] = "s"
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_cold_s": "s",
    "pipeline_warm_s": "s",
    "peak_rss_mb": "MB",
    "out_tree_mb": "MB",
    "ok_frac": "frac",
}


@dataclass
class PassResult:
    seconds: float  # wall time
    cpu_seconds: float = 0.0
    yardsticks: list[float] = field(default_factory=list)  # calibration samples between the stages

    @property
    def reference_seconds(self) -> float:
        """CPU time at reference machine speed, by the yardsticks taken between this pass's stages."""
        return calibration.to_reference(self.cpu_seconds, statistics.fmean(self.yardsticks))
    exit_codes: dict[str, int] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    stderr: dict[str, str] = field(default_factory=dict)


@dataclass
class Iteration:
    cold: PassResult
    warm: PassResult
    out_tree_bytes: int
    cold_tree: dict[str, str]  # relative path -> sha256 of the cold-pass output tree
    failures: list[checks.Failure]
    layers: dict[str, float] | None = None  # per-layer values, traced iterations only

    @property
    def invocations(self) -> int:
        return len(self.cold.exit_codes) + len(self.warm.exit_codes)

    @property
    def failed(self) -> int:
        return len({(pass_, stage) for pass_, stage, _ in self.failures})


def run_pass(config: Path, out_dir: Path) -> PassResult:
    """Run the five stages in order; the time is the sum of the stage calls."""
    result = PassResult(seconds=0.0, yardsticks=[calibration.yardstick()])
    for stage in STAGES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            code = cli.main([stage, "--config", str(config), "--out", str(out_dir)])
            result.seconds += time.perf_counter() - start
            result.cpu_seconds += time.process_time() - cpu_start
        result.exit_codes[stage] = code
        result.stdout[stage] = out.getvalue()
        result.stderr[stage] = err.getvalue()
        result.yardsticks.append(calibration.yardstick())
    return result


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def run_iteration(wl: Workload, out_dir: Path, tracer: Tracer | None = None, run_id: str = "") -> Iteration:
    """A cold pass, then a warm pass, on a fresh ``out_dir``; checked, then removed."""
    passes: dict[str, PassResult] = {}
    cold_artifacts: dict[str, bytes] = {}
    size, cold_tree = 0, {}
    for pass_ in PASSES:
        gc.collect()
        if tracer is not None:
            tracer.run_id = f"{run_id}-{pass_}"
        passes[pass_] = run_pass(wl.config, out_dir)
        if pass_ == "cold":
            size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            cold_tree = tree_digest(out_dir)
            cold_artifacts = {n: (out_dir / n).read_bytes() for n in checks.COMPARED if (out_dir / n).is_file()}
    failures = checks.check_iteration(wl, out_dir, passes, cold_artifacts)
    layers = None
    if tracer is not None:
        layers = {}
        for pass_ in PASSES:
            totals = tracer.layer_totals(f"{run_id}-{pass_}")
            totals["features.count_s"] = totals.get("features.build_profile.self_s", 0.0)
            ingest_out = passes[pass_].stdout["ingest"].splitlines()
            totals["cli.cache_hits"] = sum(1 for line in ingest_out if line.startswith("cache hit: "))
            totals["cli.cache_misses"] = sum(1 for line in ingest_out if line.startswith("ingested: "))
            for metric in LAYER_UNITS:
                if f"{metric}.{pass_}" in PER_LAYER_UNITS:
                    layers[f"{metric}.{pass_}"] = totals.get(metric, 0.0)
    shutil.rmtree(out_dir)
    return Iteration(passes["cold"], passes["warm"], size, cold_tree, failures, layers)


@dataclass
class Measurement:
    untraced: list[Iteration]
    traced: list[Iteration]
    tracer: Tracer | None

    @property
    def iterations(self) -> list[Iteration]:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(it.invocations for it in self.iterations)

    @property
    def failed(self) -> int:
        return sum(it.failed for it in self.iterations)


def measure(wl: Workload, work: Path, seconds: float, trace: bool, label: str) -> Measurement:
    """Repeat iterations until the next one would end after ``seconds``; at least one.

    With ``trace`` every untraced iteration is followed by a traced one, and
    the traced cold-pass output tree must equal the untraced one.
    """
    tracer = Tracer() if trace else None
    result = Measurement([], [], tracer)
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        if is_instrumented():
            raise RuntimeError("wrappers are installed during an untraced iteration")
        untraced = run_iteration(wl, work / f"out-{index}")
        result.untraced.append(untraced)
        if tracer is not None:
            with instrumented(tracer):
                traced = run_iteration(wl, work / f"out-{index}-traced", tracer, f"{label}-i{index}")
            result.traced.append(traced)
            traced.failures += checks.compare_trees(untraced.cold_tree, traced.cold_tree)
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return result


def reference_median(its: list[Iteration], pass_: str) -> float:
    return statistics.median(getattr(it, pass_).reference_seconds for it in its)


def end_to_end(
    m: Measurement, setup_samples: list[tuple[float, float]], peak_rss_bytes: int
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; ``setup_samples`` are (CPU seconds, yardstick) pairs."""
    its = m.untraced
    values = {
        "setup_s": statistics.median(calibration.to_reference(cpu, y) for cpu, y in setup_samples),
        "pipeline_cold_s": reference_median(its, "cold"),
        "pipeline_warm_s": reference_median(its, "warm"),
        "peak_rss_mb": peak_rss_bytes / 1e6,
        "out_tree_mb": statistics.median(it.out_tree_bytes for it in its) / 1e6,
        "ok_frac": 1.0 - m.failed / m.attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(m: Measurement) -> dict[str, tuple[float, str]]:
    metrics = {
        name: (statistics.median(it.layers[name] for it in m.traced), unit)
        for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"
    }
    overhead = reference_median(m.traced, "cold") - reference_median(m.untraced, "cold")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics

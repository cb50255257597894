"""Tests of the benchmark itself: generator, output check and tracing.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import checks
import harness
from tracing import Tracer, instrumented, is_instrumented
from workloads import WORKLOADS, Shape, generate

TINY = Shape(
    name="tiny",
    vocabulary=500,
    source_tokens=2_000,
    target_tokens=1_000,
    targets=3,
    source_format="conll",
    target_formats=("text", "jsonl"),
    first_share=0.1,
    last_share=0.8,
    weighting="tfidf",
    systems=2,
    other_tasks=2,
    why="small enough for a unit test, and tfidf covers pairwise re-embedding",
)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    generate(TINY, 7, tmp_path / "a")
    generate(TINY, 7, tmp_path / "b")
    generate(TINY, 8, tmp_path / "c")
    a, b, c = (tree_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    assert {Path(name).suffix for name in a} >= {".conll", ".jsonl", ".txt", ".csv", ".json"}


def test_generator_shapes_match_their_descriptions():
    for shape in WORKLOADS.values():
        assert shape.name and len(shape.why) <= 200
    assert WORKLOADS["ingest-heavy"].weighting == "tf"
    assert WORKLOADS["tfidf-pairs"].weighting == "tfidf"


@pytest.fixture(scope="module")
def checked_iteration(tmp_path_factory):
    """One tiny cold + warm iteration, with its output tree kept for perturbing."""
    root = tmp_path_factory.mktemp("iteration")
    wl = generate(TINY, 3, root / "input")
    out = root / "out"
    passes = {"cold": harness.run_pass(wl.config, out)}
    cold_artifacts = {n: (out / n).read_bytes() for n in checks.COMPARED}
    passes["warm"] = harness.run_pass(wl.config, out)
    return wl, out, passes, cold_artifacts


def test_check_passes_on_unchanged_outputs(checked_iteration):
    assert checks.check_iteration(*checked_iteration) == []


def _bump_lexical(payload):
    payload["records"][1]["lexical_difference"] += 1e-9


def _bump_tau_p(payload):
    payload["reports"][0]["tau_p"] *= 1.001


def _bump_fit(payload):
    system = sorted(payload["fits"])[0]
    payload["fits"][system]["lexical"]["b"] *= 1.01


@pytest.mark.parametrize(
    "artifact, perturb, stage",
    [
        ("similarity.json", _bump_lexical, "similarity"),
        ("transport.json", _bump_tau_p, "transport"),
        ("fit_summary.json", _bump_fit, "fit"),
    ],
)
def test_check_catches_a_perturbed_cold_artifact(checked_iteration, artifact, perturb, stage):
    wl, out, passes, cold_artifacts = checked_iteration
    payload = json.loads(cold_artifacts[artifact])
    perturb(payload)
    changed = dict(cold_artifacts, **{artifact: json.dumps(payload).encode("utf-8")})
    failed = {(p, s) for p, s, _ in checks.check_iteration(wl, out, passes, changed)}
    # the cold value is wrong, and the warm rewrite no longer matches it
    assert failed == {("cold", stage), ("warm", stage)}


def test_check_catches_a_warm_artifact_that_differs(checked_iteration, tmp_path):
    wl, out, passes, cold_artifacts = checked_iteration
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    report = copy / "report.json"
    report.write_bytes(report.read_bytes().replace(b"\n", b"\r\n", 1))
    failed = {(p, s) for p, s, _ in checks.check_iteration(wl, copy, passes, cold_artifacts)}
    assert failed == {("warm", "report")}


def test_check_catches_a_missed_cache_hit(checked_iteration):
    wl, out, passes, cold_artifacts = checked_iteration
    warm = harness.PassResult(0.0, exit_codes=passes["warm"].exit_codes, stdout=dict(passes["warm"].stdout))
    warm.stdout["ingest"] = warm.stdout["ingest"].replace("cache hit: source", "ingested: source", 1)
    failed = {(p, s) for p, s, _ in checks.check_iteration(wl, out, {"cold": passes["cold"], "warm": warm}, cold_artifacts)}
    assert failed == {("warm", "ingest")}


def test_tree_difference_is_charged_to_the_stage_that_wrote_the_file():
    tree = {"cache/profile-a.json": "1", "similarity.csv": "2", "fit-s-kl.json": "3", "plot-kl.csv": "4"}
    changed = dict(tree, **{"cache/profile-a.json": "x", "fit-s-kl.json": "y"})
    del changed["plot-kl.csv"]
    assert checks.compare_trees(tree, tree) == []
    assert {(p, s) for p, s, _ in checks.compare_trees(tree, changed)} == {
        ("cold", "ingest"), ("cold", "fit"), ("cold", "report"),
    }


def test_traced_and_untraced_runs_write_identical_trees(tmp_path):
    wl = generate(TINY, 5, tmp_path / "input")
    untraced = harness.run_iteration(wl, tmp_path / "plain")
    tracer = Tracer()
    with instrumented(tracer):
        assert is_instrumented()
        traced = harness.run_iteration(wl, tmp_path / "traced", tracer, "t")
    assert not is_instrumented()
    assert untraced.failures == [] and traced.failures == []
    assert untraced.cold_tree == traced.cold_tree
    assert any(name.startswith("cache/profile-") for name in traced.cold_tree)

    layers = traced.layers
    assert set(layers) == set(harness.PER_LAYER_UNITS) - {"trace.overhead_s"}
    corpora = len(wl.domains)
    assert layers["cli.cache_misses.cold"] == corpora and layers["cli.cache_hits.warm"] == corpora
    assert layers["corpus.tokens.cold"] == sum(wl.tokens.values())
    assert layers["regression.fits.cold"] == layers["regression.fits.warm"] == 3 * TINY.systems
    # tfidf re-embeds both profiles of every pair on both passes
    assert layers["features.embed_calls.warm"] == 2 * corpora
    assert layers["features.embed_calls.cold"] == 3 * corpora
    for pass_ in harness.PASSES:
        stage_sum = sum(layers[f"cli.{stage}_s.{pass_}"] for stage in ("ingest", "similarity", "transport", "fit", "report"))
        assert 0 < stage_sum <= getattr(traced, pass_).seconds
        assert 0 <= layers[f"cli.ingest.self_s.{pass_}"] <= layers[f"cli.ingest_s.{pass_}"]

    spans = tracer.spans
    assert all(end >= start for _, start, end, _, _ in spans)
    assert all(parent is None or spans[parent][1] <= start for _, start, _, parent, _ in spans)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"].endswith(": " + WORKLOADS[w["name"]].why) for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS

"""Output check for one benchmark iteration (a cold pass, then a warm pass).

Every failure names the pass and stage it is charged to, so it counts
toward the failed share of stage invocations. Expected values come from
the generator, never from the program under test:

- ``lexical_difference`` equals the value recomputed from the generated
  word sets, exactly;
- ``tau_p``, ``variation`` and each ratio match the generated score table;
- each lexical fit recovers the planted curve, and each fit's MAE matches
  the MAE recomputed from its own parameters and its joined points;
- the warm pass reports every corpus as a cache hit and rewrites
  ``similarity.json``, ``transport.json``, ``fit_summary.json`` and
  ``report.json`` byte for byte;
- a traced run writes the same output tree as an untraced one.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any

from workloads import Workload

# artifact -> stage that writes it; warm must rewrite each byte for byte
COMPARED = {
    "similarity.json": "similarity",
    "transport.json": "transport",
    "fit_summary.json": "fit",
    "report.json": "report",
}
PREDICTORS = {"lexical": "lexical_difference", "cosine": "cosine_distance", "kl": "kl_divergence"}

# planted curves are noise-free, so a correct fit recovers them to ~1e-13
PARAM_REL_TOL = 1e-6
PLANTED_MAE_TOL = 1e-6
MAE_ABS_TOL = 1e-9
RATIO_REL_TOL = 1e-9

# output-tree path prefix -> stage that writes it; report writes anything else, as the last stage
WRITERS = (
    ("cache/", "ingest"),
    ("similarity.", "similarity"),
    ("transport.", "transport"),
    ("fit", "fit"),
    ("curve-", "fit"),
)

Failure = tuple[str, str, str]  # (pass, stage, message)


def check_iteration(wl: Workload, out_dir: Path, passes: dict[str, Any], cold_artifacts: dict[str, bytes]) -> list[Failure]:
    """Check one iteration; ``passes`` maps "cold" and "warm" to results with per-stage
    ``exit_codes``, ``stdout`` and ``stderr``."""
    failures: list[Failure] = []

    def fail(pass_: str, stage: str, message: str) -> None:
        failures.append((pass_, stage, message))

    for pass_, result in passes.items():
        for stage, code in result.exit_codes.items():
            if code != 0:
                fail(pass_, stage, f"exit code {code}: {result.stderr.get(stage, '').strip()}")

    warm_ingest = passes["warm"].stdout.get("ingest", "")
    hits = sum(1 for line in warm_ingest.splitlines() if line.startswith("cache hit: "))
    if hits != len(wl.domains):
        fail("warm", "ingest", f"{hits} of {len(wl.domains)} corpora were cache hits")

    for name, stage in COMPARED.items():
        path = out_dir / name
        if name not in cold_artifacts or not path.is_file() or path.read_bytes() != cold_artifacts[name]:
            fail("warm", stage, f"{name} differs between the cold and the warm pass")

    for name, stage, check in (
        ("similarity.json", "similarity", _check_similarity),
        ("transport.json", "transport", _check_transport),
        ("fit_summary.json", "fit", _check_fits),
    ):
        try:
            payload = json.loads(cold_artifacts[name])
            problems = check(wl, payload, out_dir)
        except (KeyError, TypeError, ValueError, OSError) as exc:  # missing or malformed artifact
            problems = [f"{name} unreadable: {exc!r}"]
        for problem in problems:
            fail("cold", stage, problem)
    return failures


def _check_similarity(wl: Workload, payload: dict[str, Any], out_dir: Path) -> list[str]:
    records = {r["target_id"]: r for r in payload["records"]}
    if sorted(records) != sorted(wl.domains):
        return [f"similarity records cover {sorted(records)}, expected {sorted(wl.domains)}"]
    return [
        f"lexical_difference[{d}] = {records[d]['lexical_difference']!r}, expected {wl.lexical[d]!r}"
        for d in wl.domains
        if records[d]["lexical_difference"] != wl.lexical[d]
    ]


def _check_transport(wl: Workload, payload: dict[str, Any], out_dir: Path) -> list[str]:
    reports = {r["system"]: r for r in payload["reports"]}
    if sorted(reports) != sorted(wl.scores):
        return [f"transport reports cover {len(reports)} systems, expected {len(wl.scores)}"]
    problems = []
    targets = wl.domains[1:]
    for system, scores in wl.scores.items():
        report = reports[system]
        ratios = [scores[t] / scores["source"] for t in targets]
        mean = math.fsum(ratios) / len(ratios)
        expected = {
            "tau_p": mean,
            "variation": 100.0 * statistics.stdev(ratios) / mean if len(ratios) > 1 else None,
        }
        got_ratios = [entry["ratio"] for entry in report["per_target"]]
        if len(got_ratios) != len(ratios) or not all(_close(g, e) for g, e in zip(got_ratios, ratios)):
            problems.append(f"{system}: per-target ratios differ from the score table")
        for key, value in expected.items():
            got = report[key]
            if (value is None) != (got is None) or (value is not None and not _close(got, value)):
                problems.append(f"{system}: {key} = {got!r}, expected {value!r}")
    return problems


def _check_fits(wl: Workload, payload: dict[str, Any], out_dir: Path) -> list[str]:
    if payload["skipped"]:
        return [f"{len(payload['skipped'])} fit(s) skipped"]
    fits = payload["fits"]
    sim = json.loads((out_dir / "similarity.json").read_text(encoding="utf-8"))
    x_by_domain = {
        predictor: {r["target_id"]: r[column] for r in sim["records"]} for predictor, column in PREDICTORS.items()
    }
    problems = []
    for system, scores in wl.scores.items():
        for predictor in PREDICTORS:
            entry = fits.get(system, {}).get(predictor)
            if entry is None:
                problems.append(f"{system}/{predictor}: no fit")
                continue
            model = json.loads((out_dir / entry["file"]).read_text(encoding="utf-8"))
            expected_points = sorted([x_by_domain[predictor][d], scores[d]] for d in wl.domains)
            if model["points"] != expected_points:
                problems.append(f"{system}/{predictor}: fit points differ from the joined inputs")
                continue
            a, b, c = entry["a"], entry["b"], entry["c"]
            mae = math.fsum(abs(y - min(max(a * math.exp(-b * x) + c, 0.0), 100.0)) for x, y in expected_points)
            mae /= len(expected_points)
            if abs(entry["mae"] - mae) > MAE_ABS_TOL:
                problems.append(f"{system}/{predictor}: mae {entry['mae']!r}, recomputed {mae!r}")
            if predictor == "lexical":
                planted = wl.planted[system]
                if entry["mae"] > PLANTED_MAE_TOL or not all(
                    abs(got - want) <= PARAM_REL_TOL * abs(want) for got, want in zip((a, b, c), planted)
                ):
                    problems.append(f"{system}/lexical: fit {(a, b, c, entry['mae'])} misses planted {planted}")
    return problems


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RATIO_REL_TOL, abs_tol=0.0)


def compare_trees(expected: dict[str, str], got: dict[str, str]) -> list[Failure]:
    """A cold-pass failure for each output file whose digest differs, charged to its writer."""
    failures = []
    for path in sorted(set(expected) | set(got)):
        if expected.get(path) != got.get(path):
            stage = next((s for prefix, s in WRITERS if path.startswith(prefix)), "report")
            failures.append(("cold", stage, f"{path} differs from the untraced run"))
    return failures

"""Transportability measures over performance score tables.

The transport ratio of a (source, target) evaluation pair is simply
target score over source score. Aggregates over a set of targets:
the mean ratio, and the coefficient of variation of the ratios in
percent (sample standard deviation over mean, times 100), optionally
with a small-sample bias correction factor 1 + 1/(4n).

Score tables are loaded in one pass over the CSV rows: each row is
checked for width, a numeric score, non-empty fields and a finite score,
and its key and score are appended to two columns that become one
``{(system, task, dataset, split): score}`` dict; repeated keys and the
percent range are then checked over the whole table. No
:class:`ScoreEntry` is built until :attr:`ScoreTable.entries` is read,
except to raise a bad row's error.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Any, Iterable, Mapping, Sequence

from .errors import ComputationError, ParseError, read_text

SCORE_COLUMNS = ("system", "task", "dataset", "split", "score")

# metrics on a 0..100 scale; scores outside it are rejected at load time
PERCENT_METRICS = {"f1", "accuracy", "precision", "recall"}

Key = tuple[str, str, str, str]  # (system, task, dataset, split)


@dataclass(frozen=True)
class ScoreEntry:
    """One evaluation result: a system scored on a dataset split."""

    system: str
    task: str
    dataset: str
    split: str
    score: float

    def __post_init__(self) -> None:
        for name in ("system", "task", "dataset", "split"):
            if not getattr(self, name):
                raise ParseError(f"score entry field {name!r} must be non-empty")
        if not math.isfinite(self.score):
            raise ParseError(f"non-finite score for {self.key()}")

    def key(self) -> Key:
        return (self.system, self.task, self.dataset, self.split)


class ScoreTable:
    """Scores keyed by (system, task, dataset, split), in file order.

    The key -> score dict and the metric name are the table's only state,
    and neither changes after construction. Construction refuses a repeated
    key and, for a percent metric, a score outside [0, 100]; :attr:`entries`
    rebuilds the rows on first use.
    """

    def __init__(self, entries: Iterable[ScoreEntry], metric_name: str = "F1") -> None:
        keys: list[Key] = []
        scores: list[float] = []
        for entry in entries:
            keys.append(entry.key())
            scores.append(entry.score)
        self._fill(keys, scores, metric_name)

    @classmethod
    def _from_columns(cls, keys: list[Key], scores: list[float], metric_name: str) -> "ScoreTable":
        table = cls.__new__(cls)
        table._fill(keys, scores, metric_name)
        return table

    def _fill(self, keys: list[Key], scores: list[float], metric_name: str) -> None:
        by_key = dict(zip(keys, scores))
        if len(by_key) != len(keys):
            seen: set[Key] = set()
            for key in keys:
                if key in seen:
                    raise ParseError(f"duplicate score entry for {key}")
                seen.add(key)
        if metric_name.lower() in PERCENT_METRICS and scores and (min(scores) < 0.0 or max(scores) > 100.0):
            key, score = next((k, s) for k, s in zip(keys, scores) if not 0.0 <= s <= 100.0)
            raise ParseError(f"{metric_name} score out of [0, 100] for {key}: {score}")
        self._metric_name = metric_name
        self._scores = by_key

    @property
    def metric_name(self) -> str:
        return self._metric_name

    @cached_property
    def entries(self) -> tuple[ScoreEntry, ...]:
        """The rows as :class:`ScoreEntry` objects, in file order."""
        return tuple(ScoreEntry(*key, score) for key, score in self._scores.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self.metric_name == other.metric_name and list(self._scores.items()) == list(other._scores.items())

    def get(self, system: str, task: str, dataset: str, split: str) -> float:
        try:
            return self._scores[(system, task, dataset, split)]
        except KeyError:
            raise ParseError(
                f"score table has no entry for system={system!r} task={task!r} "
                f"dataset={dataset!r} split={split!r}"
            ) from None

    def systems(self, task: str | None = None) -> list[str]:
        """Distinct systems in first-appearance order, optionally per task."""
        return list(dict.fromkeys(k[0] for k in self._scores if task is None or k[1] == task))


def load_score_table(
    data: str | Path | bytes | IO[bytes],
    metric_name: str = "F1",
    source: str = "<stream>",
) -> ScoreTable:
    """Read a score table from CSV with header system,task,dataset,split,score.

    A :class:`~pathlib.Path` names the file to read; a ``str``, ``bytes``
    or binary stream is the CSV content itself, labelled ``source`` in
    errors. Lines starting with ``#`` are comments. An error names the
    physical line of the bad row, counting comment and blank lines.
    """
    text, label = read_text(data, "score table", source)
    lines = text.splitlines()
    # numbers[i]: the physical line of the reader's line i, comment lines skipped
    numbers = [n for n, line in enumerate(lines, start=1) if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join([lines[n - 1] for n in numbers])))
    first = next(filter(None, reader), None)
    if first is None:
        raise ParseError("score table is empty", source=label)
    header = [cell.strip() for cell in first]
    if tuple(header) != SCORE_COLUMNS:
        raise ParseError(f"bad score table header {header}; expected {list(SCORE_COLUMNS)}", source=label)
    keys: list[Key] = []
    scores: list[float] = []
    read = reader.line_num
    for row in reader:
        if row:
            if len(row) != len(SCORE_COLUMNS):
                raise ParseError(
                    f"expected {len(SCORE_COLUMNS)} columns, got {len(row)}", line=numbers[read], source=label
                )
            system, task, dataset, split, score_text = map(str.strip, row)
            try:
                score = float(score_text)
            except ValueError as exc:
                raise ParseError(f"non-numeric score {score_text!r}", line=numbers[read], source=label) from exc
            if not (system and task and dataset and split and math.isfinite(score)):
                try:
                    ScoreEntry(system, task, dataset, split, score)  # raises the row's error
                except ParseError as exc:
                    raise ParseError(str(exc), line=numbers[read], source=label) from exc
            keys.append((system, task, dataset, split))
            scores.append(score)
        read = reader.line_num
    if not keys:
        raise ParseError("score table has a header but no rows", source=label)
    return ScoreTable._from_columns(keys, scores, metric_name)


def tau_p_pair(source_score: float, target_score: float) -> float:
    """Transport ratio: target score divided by source score."""
    if not (math.isfinite(source_score) and math.isfinite(target_score)):
        raise ComputationError("non-finite score in transport ratio")
    if source_score <= 0.0:
        raise ComputationError(
            f"undefined transport ratio: source score must be positive, got {source_score}"
        )
    if target_score < 0.0:
        raise ComputationError(f"negative target score: {target_score}")
    return target_score / source_score


def tau_p_mean(source_score: float, target_scores: Sequence[float]) -> float:
    """Mean transport ratio over a set of target scores."""
    if not target_scores:
        raise ComputationError("no target scores: transport mean is undefined")
    ratios = [tau_p_pair(source_score, t) for t in target_scores]
    # summing in sorted order makes the mean independent of input order
    return sum(sorted(ratios)) / len(ratios)


def _cov_percent(ratios: Sequence[float], bias_corrected: bool) -> float:
    n = len(ratios)
    if n < 2:
        raise ComputationError("variation is undefined for fewer than 2 ratios")
    ordered = sorted(ratios)  # canonical order: permutation cannot move the result
    mean = sum(ordered) / n
    if mean == 0.0:
        raise ComputationError("variation is undefined: mean transport ratio is zero")
    import statistics  # here, not at the top: only a variation needs it

    sd = statistics.stdev(ordered)  # sample standard deviation, n-1 denominator, from an exact sum
    factor = 1.0 + 1.0 / (4.0 * n) if bias_corrected else 1.0
    return 100.0 * factor * sd / mean


def tau_var(
    source_score: float,
    target_scores: Sequence[float],
    bias_corrected: bool = False,
) -> float:
    """Coefficient of variation of transport ratios, in percent.

    With ``bias_corrected`` the small-sample factor 1 + 1/(4n) is
    applied. The default is off: published reference values use the
    plain sample statistic.
    """
    ratios = [tau_p_pair(source_score, t) for t in target_scores]
    return _cov_percent(ratios, bias_corrected)


@dataclass(frozen=True)
class TauObservation:
    """A transport ratio observed for some task/dataset, used for pooled variation."""

    task: str
    dataset: str
    ratio: float
    metric: str = "F1"

    def __post_init__(self) -> None:
        if not math.isfinite(self.ratio) or self.ratio < 0.0:
            raise ComputationError(f"invalid transport ratio {self.ratio} for {self.task}/{self.dataset}")


def tau_var_general(observations: Sequence[TauObservation], bias_corrected: bool = False) -> float:
    """Variation across arbitrary transport observations (possibly many tasks).

    All observations must share a metric; pooling F1 ratios with
    accuracy ratios would not mean anything.
    """
    if len(observations) < 2:
        raise ComputationError("variation is undefined for fewer than 2 observations")
    metrics = {o.metric for o in observations}
    if len(metrics) > 1:
        raise ComputationError(f"incomparable metrics in observations: {sorted(metrics)}")
    return _cov_percent([o.ratio for o in observations], bias_corrected)


def build_report(
    table: ScoreTable,
    system: str,
    task: str,
    source_key: tuple[str, str],
    target_keys: Sequence[tuple[str, str]],
    *,
    bias_corrected: bool = False,
    groups: Mapping[str, Sequence[tuple[str, str]]] | None = None,
) -> dict[str, Any]:
    """Compute all transport measures for one system, as ``transport.json`` stores them.

    ``source_key`` and each target key are (dataset, split) pairs.
    ``groups`` optionally names subsets of the targets whose mean
    ratios are reported separately. Variation is None when fewer
    than two targets are given, since it is undefined there.
    """
    if not target_keys:
        raise ComputationError("no target keys given")
    source_score = table.get(system, task, *source_key)
    ratios = [tau_p_pair(source_score, table.get(system, task, *key)) for key in target_keys]
    variation = _cov_percent(ratios, bias_corrected) if len(ratios) >= 2 else None
    group_means: dict[str, float] = {}
    if groups:
        for name, keys in groups.items():
            if not keys:
                raise ComputationError(f"group {name!r} has no target keys")
            scores = [table.get(system, task, *k) for k in keys]
            group_means[name] = tau_p_mean(source_score, scores)
    return {
        "system": system,
        "task": task,
        "metric": table.metric_name,
        "source": {"dataset": source_key[0], "split": source_key[1]},
        "source_score": source_score,
        "per_target": [{"dataset": k[0], "split": k[1], "ratio": r} for k, r in zip(target_keys, ratios)],
        "tau_p": sum(sorted(ratios)) / len(ratios),
        "variation": variation,
        "bias_corrected": bias_corrected,
        "group_means": group_means,
    }


def render_report_text(reports: Sequence[Mapping[str, Any]], group_order: Sequence[str] | None = None) -> str:
    """Fixed-width text table: one column per system, one row per measure.

    ``reports`` are in the :func:`build_report` form, as stored in
    ``transport.json``.
    """
    if not reports:
        raise ComputationError("nothing to render: no reports")
    groups = list(group_order) if group_order is not None else sorted(
        {g for rep in reports for g in rep["group_means"]}
    )
    rows: list[tuple[str, list[str]]] = []
    rows.append(("source", [f"{r['source']['dataset']}/{r['source']['split']}" for r in reports]))
    for g in groups:
        rows.append(
            (f"tau_p({g})", ["%.3f" % r["group_means"][g] if g in r["group_means"] else "n/a" for r in reports])
        )
    rows.append(("tau_p(mean)", ["%.3f" % r["tau_p"] for r in reports]))
    rows.append(
        ("tau_var(%)", ["%.3f" % r["variation"] if r["variation"] is not None else "n/a" for r in reports])
    )
    header = ["measure"] + [r["system"] for r in reports]
    table_rows = [header] + [[label] + cells for label, cells in rows]
    widths = [max(len(row[i]) for row in table_rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table_rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"

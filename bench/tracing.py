"""Spans around the calls the pipeline makes into each layer.

Nothing inside ``src/`` is changed: :func:`instrumented` replaces, for the
duration of a ``with`` block, the names ``domainport.cli`` calls (and the
embedding function ``features`` and ``divergence`` call) with wrappers that
record a span and, where the result carries one, a count. On exit every
original is put back, so untraced runs execute the unwrapped program.

Layers are the package's modules: ``corpus``, ``features``, ``hashing``,
``divergence``, ``transport``, ``regression`` and ``cli``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from domainport import cli, divergence, features, transport

STAGES = ("ingest", "similarity", "transport", "fit", "report")

CountFn = Callable[[Any, tuple, dict], dict[str, float]]  # (result, args, kwargs) -> counts


class Tracer:
    """Spans (name, start, end, parent, run id) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or None, run id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str | None, fn: Callable, counter: CountFn | None = None) -> Callable:
        """``fn`` with a span named ``name`` (none if None) and ``counter``'s counts added."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = None
            if name is not None:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
                self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self.spans[index][2] = time.perf_counter()
                    self._stack.pop()
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counts[self.run_id][key] += value
            return result

        return traced

    def layer_totals(self, run_id: str) -> dict[str, float]:
        """Summed span time (``<name>_s``), self time (``<name>.self_s``) and counts of one run."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            totals[f"{name}_s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[index]
        totals.update(self.counts[run_id])
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": rid}) + "\n")


def _corpus_counts(corpus: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"corpus.documents": len(corpus.documents), "corpus.tokens": corpus.token_count}


def _written_bytes(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"cli.bytes_written": Path(args[0]).stat().st_size}


def _patches() -> list[tuple[Any, str, str | None, CountFn | None]]:
    """(owner, attribute, span name, counter) for every wrapped call site."""
    patches: list[tuple[Any, str, str | None, CountFn | None]] = [
        (cli, f"cmd_{stage}", f"cli.{stage}", None) for stage in STAGES
    ]
    patches += [(cli, parser, "corpus.parse", _corpus_counts)
                for parser in ("parse_conll", "parse_jsonl_pairs", "parse_plaintext", "parse_interchange")]
    patches += [
        (cli, "build_profile", "features.build_profile",
         lambda p, a, k: {"features.distinct_features": len(p.term_freq)}),
        (features, "embed_builtin", "features.embed", lambda r, a, k: {"features.embed_calls": 1}),
        (divergence, "embed_builtin", "features.embed", lambda r, a, k: {"features.embed_calls": 1}),
        (cli, "profile_from_dict", "features.profile_load", None),
        (cli, "fnv1a_64", "hashing.input_hash", lambda r, a, k: {"hashing.input_bytes": len(a[0])}),
        (cli, "similarity_table", "divergence.similarity_table", lambda r, a, k: {"divergence.records": len(r)}),
        (cli, "load_score_table", "transport.load_table", lambda t, a, k: {"transport.table_rows": len(t.entries)}),
        (transport.ScoreTable, "get", "transport.lookup", lambda r, a, k: {"transport.lookups": 1}),
        (cli, "build_report", "transport.build_report", None),
        (cli, "fit_curve", "regression.fit",
         lambda m, a, k: {"regression.fits": 1, "regression.polish_steps": m.fit_log.polish_steps}),
        (cli, "curve_points", "regression.curve", None),
        # a count only: serialization and writes stay in the stage's self time
        (cli, "_write_text", None, _written_bytes),
    ]
    return patches


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Install the wrappers for the block; always restore the originals."""
    originals = []
    try:
        for owner, attr, name, counter in _patches():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def is_instrumented() -> bool:
    """True while any wrapper is installed."""
    return any(getattr(vars(owner)[attr], "__name__", "") == "traced" for owner, attr, _, _ in _patches())

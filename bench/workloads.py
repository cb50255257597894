"""Seeded workload generator for the pipeline benchmark.

A workload is a directory holding corpora in the three parser formats
(``conll``, ``jsonl``, ``text``), a score table and a run config. Only the
seed changes the values in it; its shape (corpus count and sizes, formats,
table rows and row order) is fixed, so run time depends on the shape alone.
The same shape and seed give the same bytes.

Words are ``w<id>`` tokens drawn from a Zipf distribution over a fixed
vocabulary. Tokenizing such a word returns it unchanged, so the word sets
the generator draws are exactly the vocabularies the program builds, and
``lexical_difference`` can be recomputed from them. Each target remaps a
different share of the frequency ranks to the opposite end of the
vocabulary, so targets move away from the source by different amounts.

On the target task each system's scores lie exactly on a planted curve
``a * exp(-b * lexical_difference) + c``; the lexical fit must recover it.
Rows are grouped by system, as in a leaderboard export, with the target
task in the middle of each group, so a lookup scans part of the table.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

TARGET_TASK = "ner"
SPLIT = "test"
SOURCE_SPLIT = "train"
TOKENS_PER_LINE = 20
LINES_PER_CONLL_DOC = 10
ZIPF_EXPONENT = 1.0
FORMAT_SUFFIX = {"conll": "conll", "jsonl": "jsonl", "text": "txt"}


@dataclass(frozen=True)
class Shape:
    """Fixed shape of a workload; the seed only changes values inside it."""

    name: str
    vocabulary: int
    source_tokens: int
    target_tokens: int
    targets: int
    source_format: str
    target_formats: tuple[str, ...]  # cycled over the targets
    first_share: float  # share of ranks the first target remaps
    last_share: float  # share of ranks the last target remaps
    weighting: str
    systems: int
    other_tasks: int  # tasks besides the target task, scored on every dataset
    why: str

    @property
    def corpora(self) -> int:
        return self.targets + 1

    @property
    def table_rows(self) -> int:
        return self.systems * self.corpora * (1 + self.other_tasks)


WORKLOADS = {
    shape.name: shape
    for shape in (
        Shape(
            name="ingest-heavy",
            vocabulary=50_000,
            source_tokens=100_000,
            target_tokens=100_000,
            targets=5,
            source_format="conll",
            target_formats=("text", "jsonl"),
            first_share=0.1,
            last_share=0.8,
            weighting="tf",
            systems=3,
            other_tasks=0,
            why="parsing, counting, embedding, the input hash and ingest writes do the work; "
            "warm is the cache-hit path",
        ),
        Shape(
            name="many-systems",
            vocabulary=50_000,
            source_tokens=6_000,
            target_tokens=6_000,
            targets=7,
            source_format="conll",
            target_formats=("jsonl", "text", "conll"),
            first_share=0.1,
            last_share=0.8,
            weighting="tf",
            systems=12,
            other_tasks=100,
            why="36 fits and score-table lookups in a system-grouped table dominate both passes",
        ),
        Shape(
            name="tfidf-pairs",
            vocabulary=50_000,
            source_tokens=100_000,
            target_tokens=10_000,
            targets=12,
            source_format="conll",
            target_formats=("text", "jsonl"),
            first_share=0.05,
            last_share=0.8,
            weighting="tfidf",
            systems=3,
            other_tasks=0,
            why="tfidf re-embeds both profiles for every pair on every pass, cached or not",
        ),
    )
}


@dataclass
class Workload:
    """A generated workload and the facts the output check needs."""

    shape: Shape
    seed: int
    config: Path
    domains: list[str]  # source first
    datasets: dict[str, tuple[str, str]]  # domain -> (dataset, split)
    tokens: dict[str, int]
    distinct_words: dict[str, int]
    lexical: dict[str, float]  # domain -> lexical difference from the source
    planted: dict[str, tuple[float, float, float]]  # system -> (a, b, c)
    scores: dict[str, dict[str, float]]  # system -> domain -> target-task score

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.shape.name,
            "seed": self.seed,
            "corpora": len(self.domains),
            "tokens": sum(self.tokens.values()),
            "distinct_words": self.distinct_words,
            "table_rows": self.shape.table_rows,
            "systems": self.shape.systems,
            "weighting": self.shape.weighting,
        }


def _rank_probabilities(vocabulary: int) -> np.ndarray:
    p = 1.0 / np.arange(1, vocabulary + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return p / p.sum()


def _remap_mask(vocabulary: int, share: float) -> np.ndarray:
    # golden-ratio sequence: a seed-independent, evenly spread share of ranks
    ranks = np.arange(vocabulary, dtype=np.float64)
    return (ranks * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0 < share


def _write_corpus(path: Path, fmt: str, words: list[str]) -> None:
    lines = [words[i : i + TOKENS_PER_LINE] for i in range(0, len(words), TOKENS_PER_LINE)]
    half = TOKENS_PER_LINE // 2
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, line in enumerate(lines):
            if fmt == "text":
                fh.write(" ".join(line) + "\n")
            elif fmt == "jsonl":
                record = {"id": i, "sentence1": " ".join(line[:half]), "sentence2": " ".join(line[half:])}
                fh.write(json.dumps(record) + "\n")
            else:
                if i % LINES_PER_CONLL_DOC == 0:
                    fh.write("-DOCSTART-\tO\n\n")
                fh.write("".join(f"{word}\tO\n" for word in line) + "\n")


def generate(shape: Shape, seed: int, root: Path) -> Workload:
    """Write the workload for ``seed`` under ``root`` (created if needed)."""
    # the name joins the seed, so workloads sharing a seed draw different values
    rng = np.random.default_rng([seed, zlib.crc32(shape.name.encode("utf-8"))])
    root.mkdir(parents=True, exist_ok=True)
    (root / "corpora").mkdir(exist_ok=True)
    words = np.array([f"w{i}" for i in range(shape.vocabulary)], dtype=object)
    probabilities = _rank_probabilities(shape.vocabulary)

    domains = ["source"] + [f"target{k:02d}" for k in range(shape.targets)]
    shares = np.linspace(shape.first_share, shape.last_share, shape.targets)
    vocab: dict[str, np.ndarray] = {}
    tokens: dict[str, int] = {}
    corpora_cfg = []
    datasets: dict[str, tuple[str, str]] = {}
    for k, domain in enumerate(domains):
        if k == 0:
            fmt, count, share = shape.source_format, shape.source_tokens, 0.0
        else:
            fmt = shape.target_formats[(k - 1) % len(shape.target_formats)]
            count, share = shape.target_tokens, float(shares[k - 1])
        ranks = rng.choice(shape.vocabulary, size=count, p=probabilities)
        ids = np.where(_remap_mask(shape.vocabulary, share)[ranks], shape.vocabulary - 1 - ranks, ranks)
        vocab[domain] = np.unique(ids)
        tokens[domain] = count
        rel = f"corpora/{domain}.{FORMAT_SUFFIX[fmt]}"
        _write_corpus(root / rel, fmt, words[ids].tolist())
        datasets[domain] = (f"ds-{domain}", SOURCE_SPLIT if k == 0 else SPLIT)
        entry: dict[str, Any] = {
            "domain_id": domain,
            "path": rel,
            "format": fmt,
            "dataset": datasets[domain][0],
            "split": datasets[domain][1],
        }
        if fmt == "jsonl":
            entry["fields"] = ["sentence1", "sentence2"]
        corpora_cfg.append(entry)

    # same arithmetic as divergence.lexical_difference, so equality is exact
    lexical = {
        d: 1.0 - int(np.intersect1d(vocab[d], vocab["source"]).size) / int(vocab[d].size) for d in domains
    }

    systems = [f"sys{s:03d}" for s in range(shape.systems)]
    planted: dict[str, tuple[float, float, float]] = {}
    scores: dict[str, dict[str, float]] = {}
    for system in systems:
        a, b, c = float(rng.uniform(20.0, 40.0)), float(rng.uniform(1.5, 4.0)), float(rng.uniform(30.0, 50.0))
        planted[system] = (a, b, c)
        scores[system] = {d: a * math.exp(-b * lexical[d]) + c for d in domains}
    other = [f"task{t:02d}" for t in range(shape.other_tasks)]
    tasks = other[: len(other) // 2] + [TARGET_TASK] + other[len(other) // 2 :]
    other_scores = rng.uniform(10.0, 95.0, size=(shape.systems, len(tasks), len(domains))).round(2)
    rows = ["system,task,dataset,split,score"]
    for s, system in enumerate(systems):
        for t, task in enumerate(tasks):
            for d, domain in enumerate(domains):
                value = scores[system][domain] if task == TARGET_TASK else float(other_scores[s, t, d])
                rows.append(f"{system},{task},{datasets[domain][0]},{datasets[domain][1]},{value!r}")
    (root / "scores.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    config = {
        "out_dir": "out",
        "embedding": {"weighting": shape.weighting},
        "corpora": corpora_cfg,
        "scores": {"path": "scores.csv", "metric": "F1"},
        "transport": {
            "task": TARGET_TASK,
            "source": list(datasets["source"]),
            "targets": [list(datasets[d]) for d in domains[1:]],
        },
        "similarity": {"source": "source"},
        "fit": {"predictors": ["lexical", "cosine", "kl"]},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Workload(
        shape=shape,
        seed=seed,
        config=config_path,
        domains=domains,
        datasets=datasets,
        tokens=tokens,
        distinct_words={d: int(v.size) for d, v in vocab.items()},
        lexical=lexical,
        planted=planted,
        scores=scores,
    )


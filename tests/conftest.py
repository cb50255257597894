"""Shared helpers: synthetic corpora, pipeline trees, and a CLI runner."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from domainport.cli import main as cli_main
from domainport.corpus import Corpus, TokenizerConfig, parse_plaintext

# varied wording so the three similarity measures spread out across targets
SOURCE_TEXT = """\
the committee approved the annual budget
parliament debated the new labour law
the minister announced a budget reform
"""

TARGET_TEXTS = {
    "news": """\
the committee rejected the annual budget
the parliament passed a labour reform
ministers announced new spending plans
""",
    "social": """\
omg the new phone drops tomorrow
cant wait for the weekend tbh
this game is so laggy today
""",
    "science": """\
the enzyme catalyzes the hydrolysis reaction
we measured protein expression in mutant cells
results indicate a significant binding affinity
""",
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process, capturing exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def make_corpus(
    text: str,
    domain_id: str = "corpus",
    config: TokenizerConfig | None = None,
) -> Corpus:
    return parse_plaintext(text, config, domain_id=domain_id, source="<test>")


def write_pipeline_tree(root: Path, *, seed: int = 42, dimension: int = 32) -> Path:
    """Lay out corpora, a score table, and a config file under ``root``.

    Returns the config path. The tree has one source corpus and three
    targets with dataset/split join keys, plus two systems scored on
    all four, so every stage of the pipeline has work to do.
    """
    corpora_dir = root / "corpora"
    corpora_dir.mkdir(parents=True, exist_ok=True)
    (corpora_dir / "src.txt").write_text(SOURCE_TEXT, encoding="utf-8")
    for name, text in TARGET_TEXTS.items():
        (corpora_dir / f"{name}.txt").write_text(text, encoding="utf-8")

    scores = ["system,task,dataset,split,score"]
    table = {
        "alpha-sys": {"src": 95.0, "news": 88.0, "social": 52.0, "science": 61.0},
        "beta-sys": {"src": 90.0, "news": 80.0, "social": 45.0, "science": 57.0},
    }
    for system, per_dataset in table.items():
        for dataset, score in per_dataset.items():
            split = "train" if dataset == "src" else "test"
            scores.append(f"{system},toy,{dataset},{split},{score}")
    (root / "scores.csv").write_text("\n".join(scores) + "\n", encoding="utf-8")

    config = {
        "out_dir": "out",
        "embedding": {"dimension": dimension, "seed": seed},
        "corpora": [
            {"domain_id": "src", "path": "corpora/src.txt", "format": "text",
             "dataset": "src", "split": "train"},
            {"domain_id": "news", "path": "corpora/news.txt", "format": "text",
             "dataset": "news", "split": "test"},
            {"domain_id": "social", "path": "corpora/social.txt", "format": "text",
             "dataset": "social", "split": "test"},
            {"domain_id": "science", "path": "corpora/science.txt", "format": "text",
             "dataset": "science", "split": "test"},
        ],
        "scores": {"path": "scores.csv", "metric": "F1"},
        "transport": {
            "task": "toy",
            "source": ["src", "train"],
            "targets": [
                {"dataset": "news", "split": "test", "group": "near"},
                {"dataset": "social", "split": "test", "group": "far"},
                {"dataset": "science", "split": "test", "group": "far"},
            ],
        },
        "similarity": {"source": "src"},
        "fit": {"predictors": ["lexical", "cosine", "kl"]},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


# domain id -> file, format and text: mixed case, punctuation, `_`/digit tokens and
# non-ASCII words; each corpus also holds a unit of punctuation alone, which is skipped
MIXED_CORPORA = {
    "src": ("src.conll", "conll", """\
-DOCSTART- -X- O O

The\tDT\tO
Committee\tNNP\tB-ORG
APPROVED\tVBD\tO
the\tDT\tO
annual_budget\tNN\tO
of\tIN\tO
2024\tCD\tO
.\t.\tO

-DOCSTART- -X- O O

...\t:\tO
!!\t.\tO

-DOCSTART- -X- O O

İstanbul\tNNP\tB-LOC
and\tCC\tO
Straße\tNNP\tB-LOC
DEBATED\tVBD\tO
the\tDT\tO
Labour-Law\tNN\tO
"""),
    "news": ("news.jsonl", "jsonl", """\
{"sentence1": "The Committee REJECTED the annual budget!", "sentence2": "Vote_count: 42-17 (final)."}
{"sentence1": "...!?", "sentence2": "--"}
{"sentence1": "Parliament passed a labour reform in 東京, then İstanbul.", "sentence2": "MINISTERS agree"}
{"other": "no text field"}
"""),
    "social": ("social.txt", "text", """\
OMG!!! the new phone_X2 drops 2morrow :)
--- ... !!!
cant wait 4 the WEEKEND tbh
İSTANBUL vs STRASSE vs Straße #travel
"""),
    "science": ("science.txt", "text", """\
The enzyme catalyzes the HYDROLYSIS reaction (pH 7.4).
We measured protein_expression in mutant cells.

;;; ---

Results indicate 東京 binding-affinity, Straße et al.
"""),
}


def write_mixed_text_tree(root: Path) -> Path:
    """``write_pipeline_tree`` with the corpora of :data:`MIXED_CORPORA`, "science" split by paragraph."""
    config_path = write_pipeline_tree(root)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    for spec in config["corpora"]:
        name, spec["format"], text = MIXED_CORPORA[spec["domain_id"]]
        spec["path"] = f"corpora/{name}"
        (root / spec["path"]).write_text(text, encoding="utf-8")
        if spec["domain_id"] == "science":
            spec["text_unit"] = "paragraph"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


def run_full_pipeline(config_path: Path, out_dir: str | None = None) -> dict[str, str]:
    """Run every stage, asserting each exits 0; returns each stage's stdout."""
    extra = ["--out", out_dir] if out_dir is not None else []
    stdout = {}
    for stage in ("ingest", "similarity", "transport", "fit", "report"):
        code, stdout[stage], err = run_cli([stage, "--config", str(config_path), *extra])
        assert code == 0, f"{stage} failed ({code}): {stdout[stage]} {err}"
    return stdout


def tree_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by its POSIX path relative to ``out``."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}

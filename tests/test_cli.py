"""End-to-end CLI tests: staging, caching, overrides, and exit codes."""

from __future__ import annotations

import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_cli, run_full_pipeline, tree_digests, write_pipeline_tree
import domainport
from domainport import cli, hashing
from domainport.corpus import TokenizerConfig, parse_plaintext, to_interchange
from domainport.divergence import CSV_COLUMNS, KLSettings
from domainport.errors import ConfigError, ParseError, read_text
from domainport.features import EmbeddingConfig, profile_from_dict
from domainport.hashing import dump_json, fields_from_dict, stable_hash
from domainport.regression import FitModel, fit, predict
from test_output_tree import GOLDEN


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def columns(artifact):
    """The (terms, counts) columns of a profile artifact."""
    return artifact["profile"]["terms"], artifact["profile"]["counts"]


def edit_config(config_path, mutate):
    raw = read_json(config_path)
    mutate(raw)
    config_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")


def set_key(*keys, value):
    def edit(raw):
        block = raw
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
    return edit


# ---------------------------------------------------------------- pipeline

DOMAINS = ("src", "news", "social", "science")  # the shared test tree's corpora, in config order


# the stage hashes of the shared test tree's config, and the ingest hash of its corpus "src"
PIPELINE_HASHES = {"similarity": "0692346d58a5c161", "transport": "ee30809157a1fc30",
                   "fit": "bf44f573749d7a3d", "report": "aac0ce2c4466bdc5", "src": "d6d4a1c327659481"}


def test_full_pipeline_writes_consistent_artifacts(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"

    for name in (
        "cache/stage-ingest.json",
        "cache/profile-src.json",
        "similarity.csv",
        "similarity.json",
        "transport.json",
        "transport.txt",
        "fit-alpha-sys-kl.json",
        "curve-alpha-sys-kl.csv",
        "fit_summary.json",
        "report.json",
        "report.txt",
        "plot-kl.csv",
    ):
        assert (out / name).is_file(), name

    # every artifact carries the hash of the stage that wrote it; a profile, its corpus's ingest hash
    for name, stage in (("cache/profile-src.json", "src"),
                        ("similarity.json", "similarity"), ("transport.json", "transport"),
                        ("fit-alpha-sys-kl.json", "fit"), ("fit_summary.json", "fit"), ("report.json", "report")):
        assert read_json(out / name)["config_hash"] == PIPELINE_HASHES[stage], name
    for name, stage in (("similarity.csv", "similarity"), ("curve-alpha-sys-kl.csv", "fit"), ("plot-kl.csv", "fit")):
        assert (out / name).read_text(encoding="utf-8").startswith(f"#config_hash={PIPELINE_HASHES[stage]},"), name

    # similarity.csv: the fixed columns, one row per record, floats that round-trip exactly
    records = read_json(out / "similarity.json")["records"]
    header, *rows = csv.reader((out / "similarity.csv").read_text(encoding="utf-8").splitlines()[1:])
    assert tuple(header) == CSV_COLUMNS
    assert len(rows) == len(records) == 4
    for row, rec in zip(rows, records):
        assert row[:2] == [rec["source_id"], rec["target_id"]]
        assert [float(v) for v in row[2:]] == [rec[c] for c in CSV_COLUMNS[2:]]

    # the advisory lock never outlives a run
    assert not (out / ".lock").exists()

    report = (out / "report.txt").read_text(encoding="utf-8")
    for section in ("[similarity]", "[transport]", "[fit]"):
        assert section in report
    assert "mean_mae[kl]" in report


def test_ingest_reuses_cache_without_rewriting(tmp_path):
    config = write_pipeline_tree(tmp_path)
    code, out1, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert "ingested: src" in out1

    cache = tmp_path / "out" / "cache"
    before = {
        p.name: p.stat().st_mtime_ns
        for p in (cache / "stage-ingest.json", cache / "profile-src.json", cache / "profile-news.json")
    }
    code, out2, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert out2.count("cache hit:") == 4
    after = {p: (cache / p).stat().st_mtime_ns for p in before}
    assert after == before  # nothing rewritten on a clean hit, the stamp included


def test_ingest_caches_profiles_only(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    cache = tmp_path / "out" / "cache"
    assert sorted(p.name for p in cache.iterdir()) == [
        "profile-news.json", "profile-science.json", "profile-social.json", "profile-src.json", "stage-ingest.json",
    ]
    assert set(read_json(cache / "stage-ingest.json")["outputs"]) == {f"cache/profile-{d}.json" for d in DOMAINS}


def test_a_tree_from_another_version_is_stale_then_reruns_each_stage_once(tmp_path, monkeypatch):
    # any change to a stored layout, hash or key bumps the version, so another version's files miss and are refused
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    old = domainport.__version__ + "-old"
    monkeypatch.setattr(cli, "__version__", old)
    run_full_pipeline(config)
    monkeypatch.undo()
    before = tree_digests(out)
    for stage, writer, name in (("similarity", "ingest", "cache/profile-src.json"),
                                ("fit", "similarity", "similarity.json")):
        code, stdout, err = run_cli([stage, "--config", str(config)])
        assert (code, stdout) == (1, "")
        assert err == f"config error: stale: rerun {writer} ({name} is from tool version {old!r})\n"
    assert tree_digests(out) == before
    rerun = run_full_pipeline(config)
    assert [line.split(" (")[0] for line in rerun["ingest"].splitlines()] == [f"ingested: {d}" for d in DOMAINS]
    assert not [stage for stage, stdout in rerun.items() if "up to date" in stdout]
    assert tree_digests(out) == GOLDEN
    warm = run_full_pipeline(config)
    assert warm.pop("ingest") == "".join(f"cache hit: {d}\n" for d in DOMAINS)
    assert warm == {stage: f"{stage}: up to date\n" for stage in STAMPED}


def test_a_warm_pass_calls_no_fnv_hash(tmp_path, monkeypatch):
    # FNV-1a hashes feature slots only; config, stage and stamp hashes are SHA-256
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)

    def refuse(*args, **kwargs):
        raise AssertionError("fnv1a_64 called on a warm pass")

    monkeypatch.setattr(hashing, "fnv1a_64", refuse)
    warm = run_full_pipeline(config)
    assert warm.pop("ingest") == "".join(f"cache hit: {d}\n" for d in DOMAINS)
    assert warm == {stage: f"{stage}: up to date\n" for stage in STAMPED}


INTERCHANGE_TEXT = dump_json(to_interchange(parse_plaintext("Alpha beta!\nGamma delta beta\n", domain_id="elsewhere")))


@pytest.mark.parametrize("fmt, text", [
    ("conll", "Alpha\tX\nbeta\tX\n-DOCSTART-\nGamma\tX\n\ndelta\tX\nbeta\tX\n"),
    ("jsonl", '{"sentence1": "Alpha beta!"}\n{"sentence1": "Gamma delta", "sentence2": "beta"}\n'),
    ("interchange", INTERCHANGE_TEXT),
])
def test_ingest_reads_each_corpus_format(tmp_path, fmt, text):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / "extra").write_text(text, encoding="utf-8")
    edit_config(config, lambda raw: raw["corpora"].append(
        {"domain_id": "extra", "path": "corpora/extra", "format": fmt}
    ))
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert code == 0, err
    assert "ingested: extra (2 documents, 5 tokens)" in out
    profile = profile_from_dict(read_json(tmp_path / "out" / "cache" / "profile-extra.json")["profile"])
    assert profile.term_freq == {"alpha": 1, "beta": 2, "gamma": 1, "delta": 1}
    assert profile.domain_id == "extra"  # the config's id, not the one stored in an interchange file


def fit_points(out):
    """(system, predictor) -> the number of points of each fit that fit_summary.json lists."""
    fits = read_json(out / "fit_summary.json")["fits"]
    return {(system, predictor): entry["n"] for system, entries in fits.items() for predictor, entry in entries.items()}


def test_an_interchange_corpus_joins_the_fits_under_its_configured_id(tmp_path):
    config = write_pipeline_tree(tmp_path)
    news = parse_plaintext((tmp_path / "corpora" / "news.txt").read_text(encoding="utf-8"), domain_id="someone-else")
    (tmp_path / "corpora" / "news.json").write_text(dump_json(to_interchange(news)), encoding="utf-8")
    edit_config(config, lambda raw: raw["corpora"][1].update({"path": "corpora/news.json", "format": "interchange"}))
    run_full_pipeline(config)
    out = tmp_path / "out"
    assert [rec["target_id"] for rec in read_json(out / "similarity.json")["records"]] == [
        "src", "news", "social", "science"]
    assert fit_points(out) == {(s, p): 4 for s in ("alpha-sys", "beta-sys") for p in ("lexical", "cosine", "kl")}


def test_a_number_join_key_joins_the_fits_as_it_joins_transport(tmp_path):
    config = write_pipeline_tree(tmp_path)
    scores = tmp_path / "scores.csv"
    scores.write_text(scores.read_text(encoding="utf-8").replace(",news,", ",7,"), encoding="utf-8")

    def number_keys(raw):
        raw["corpora"][1]["dataset"] = 7
        raw["transport"]["targets"][0]["dataset"] = 7

    edit_config(config, number_keys)
    stdout = run_full_pipeline(config)
    out = tmp_path / "out"
    news = read_json(out / "transport.json")["reports"][0]["per_target"][0]
    assert (news["dataset"], news["ratio"]) == ("7", pytest.approx(88.0 / 95.0))
    assert fit_points(out) == {(s, p): 4 for s in ("alpha-sys", "beta-sys") for p in ("lexical", "cosine", "kl")}
    assert "over 3 point(s)" not in stdout["fit"]


def test_config_rejects_unknown_corpus_formats(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw["corpora"][1].update({"format": "xml"}))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "corpora[1]: unknown format 'xml'" in err


def test_ingest_recomputes_when_input_changes(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    (tmp_path / "corpora" / "news.txt").write_text("fresh words entirely\n", encoding="utf-8")
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert "ingested: news" in out
    assert out.count("cache hit:") == 3


def test_ingest_reingests_an_edit_that_keeps_the_length(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    news = tmp_path / "corpora" / "news.txt"
    before = news.read_bytes()
    after = before.replace(b"rejected", b"rejectid", 1)
    assert len(after) == len(before) and after != before
    news.write_bytes(after)
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert "ingested: news" in out
    assert out.count("cache hit:") == 3


def test_ingest_rebuilds_a_profile_edited_since_it_was_written(tmp_path):
    # a hit checks the profile's digest, so a hand-edited profile is rebuilt, not kept for similarity to refuse
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    profile = tmp_path / "out" / "cache" / "profile-news.json"
    written = profile.read_bytes()
    profile.write_text(json.dumps({**json.loads(written), "config_hash": "0" * 16}), encoding="utf-8")
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        "cache hit: src", "ingested: news", "cache hit: social", "cache hit: science"]
    assert profile.read_bytes() == written
    assert run_cli(["similarity", "--config", str(config)])[0] == 0


def test_ingest_reads_each_corpus_file_once(tmp_path, monkeypatch):
    config = write_pipeline_tree(tmp_path)
    reads = Counter()
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    corpora = {"src.txt", "news.txt", "social.txt", "science.txt"}
    code, out, _ = run_cli(["ingest", "--config", str(config)])  # every corpus a miss
    assert code == 0 and out.count("ingested:") == 4
    assert {name: reads[name] for name in corpora} == dict.fromkeys(corpora, 1)
    reads.clear()
    code, out, _ = run_cli(["ingest", "--config", str(config)])  # every corpus a hit
    assert code == 0 and out.count("cache hit:") == 4
    assert {name: reads[name] for name in corpora} == dict.fromkeys(corpora, 1)


def test_ingest_isolates_a_bad_corpus(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / "broken.jsonl").write_text("{not json\n", encoding="utf-8")
    edit_config(config, lambda raw: raw["corpora"].append(
        {"domain_id": "broken", "path": "corpora/broken.jsonl", "format": "jsonl"}
    ))
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert code == 2  # parse failure, not a config problem
    assert "failed: broken:" in err
    assert "ingest failed for: broken" in err
    # the healthy corpora were still ingested
    assert "ingested: src" in out
    cache = tmp_path / "out" / "cache"
    assert (cache / "profile-src.json").is_file()
    assert (cache / "profile-science.json").is_file()
    assert set(read_json(cache / "stage-ingest.json")["outputs"]) == {f"cache/profile-{d}.json" for d in DOMAINS}


@pytest.mark.parametrize("broken, code, kind", [(False, 3, "computation error"), (True, 2, "data error")],
                         ids=["degenerate-only", "degenerate-and-parse"])
def test_ingest_exits_3_when_every_failure_is_a_computation_error(tmp_path, broken, code, kind):
    # each document's vector is +1 and -1 in one slot of two: their mean cancels out
    (tmp_path / "a.txt").write_text("w0\nw11\n", encoding="utf-8")
    (tmp_path / "b.jsonl").write_text("{not json\n", encoding="utf-8")
    corpora = [{"domain_id": "a", "path": "a.txt", "format": "text"}]
    corpora += [{"domain_id": "b", "path": "b.jsonl", "format": "jsonl"}] if broken else []
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedding": {"dimension": 2, "seed": 42, "per_document": True},
                                  "corpora": corpora}), encoding="utf-8")
    exit_code, out, err = run_cli(["ingest", "--config", str(config)])
    assert (exit_code, out) == (code, "")
    assert err.startswith("failed: a: degenerate embedding: per-document vectors cancelled out\n")
    assert err.endswith(f"{kind}: ingest failed for: " + ("a, b" if broken else "a") + "\n")


@pytest.mark.parametrize("tokenizer", [{}, {"strip_punctuation": False}, {"split_mode": "whitespace"},
                                       {"split_mode": "whitespace", "strip_punctuation": False}],
                         ids=["default", "punctuation", "whitespace", "whitespace-punctuation"])
@pytest.mark.parametrize("fmt, name, text, problem", [
    ("jsonl", "bad.jsonl", '{"sentence1": "fine"}\n{"sentence1": "hello \\udc80 world", "sentence2": "x"}\n',
     "line 2: text holds a lone surrogate"),
    ("interchange", "bad.json", '{"domain_id": "bad", "documents": [["fine"], ["hello", "\\udc80"]], '
                                '"tokenizer_config": {}}', "document 1 has a token with a lone surrogate"),
], ids=["jsonl", "interchange"])
def test_ingest_refuses_a_corpus_with_a_lone_surrogate(tmp_path, tokenizer, fmt, name, text, problem):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / name).write_text(text, encoding="utf-8")
    edit_config(config, lambda raw: raw.update({"tokenizer": tokenizer}))
    edit_config(config, lambda raw: raw["corpora"].insert(
        1, {"domain_id": "bad", "path": f"corpora/{name}", "format": fmt, "dataset": "bad", "split": "test"}))
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert code == 2
    assert f"failed: bad: corpora/{name}: {problem}, which is not valid UTF-8\n" in err
    assert [line.split(" (")[0] for line in out.splitlines()] == [f"ingested: {d}" for d in DOMAINS]
    assert "data error: ingest failed for: bad" in err


def test_similarity_refuses_a_profile_with_a_lone_surrogate(tmp_path):
    # a hand-edited term: tfidf re-embeds every profile, and no feature hash can encode the term as UTF-8
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("embedding", "weighting", value="tfidf"))
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    profile = tmp_path / "out" / "cache" / "profile-news.json"
    profile.write_text(profile.read_text(encoding="utf-8").replace('"budget"', '"budget\\udc80"', 1), encoding="utf-8")
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert code == 2
    assert err == ("data error: corrupt artifact profile-news.json: a string holds a lone surrogate, "
                   "which is not valid UTF-8\n")


def test_ingest_forgets_a_corpus_removed_from_the_config(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    cache = tmp_path / "out" / "cache"
    edit_config(config, lambda raw: raw["corpora"].pop())  # science
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert (code, out.count("cache hit:")) == (0, 3), err
    assert set(read_json(cache / "stage-ingest.json")["outputs"]) == {
        "cache/profile-src.json", "cache/profile-news.json", "cache/profile-social.json"}
    assert not (cache / "profile-science.json").exists()
    assert run_cli(["ingest", "--config", str(config)])[1].count("cache hit:") == 3


def test_a_failed_reingest_removes_the_profile_that_similarity_would_read(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    (tmp_path / "corpora" / "news.txt").write_text("", encoding="utf-8")
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert (code, out.count("cache hit:")) == (2, 3)
    assert "failed: news: " in err
    assert not (tmp_path / "out" / "cache" / "profile-news.json").exists()
    code, stdout, err = run_cli(["similarity", "--config", str(config)])
    assert (code, stdout) == (1, "")
    assert err == "config error: missing stage outputs: cache/profile-news.json (run the ingest stage first)\n"


def test_ingest_keeps_the_profile_of_a_configured_corpus_when_it_forgets_another(tmp_path):
    # "sci ence" is renamed to "sci-ence": the forgotten id and the new one share a profile file
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("corpora", 3, "domain_id", value="sci ence"))
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    edit_config(config, set_key("corpora", 3, "domain_id", value="sci-ence"))
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert (code, out.count("cache hit:")) == (0, 3), err
    assert "ingested: sci-ence" in out  # the profile records its domain id, so it is rebuilt
    cache = tmp_path / "out" / "cache"
    assert read_json(cache / "profile-sci-ence.json")["profile"]["domain_id"] == "sci-ence"
    assert set(read_json(cache / "stage-ingest.json")["outputs"]) == {
        "cache/profile-src.json", "cache/profile-news.json", "cache/profile-social.json", "cache/profile-sci-ence.json"}
    assert run_cli(["ingest", "--config", str(config)])[1].count("cache hit:") == 4


def test_ingest_missing_corpus_file_is_a_config_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / "news.txt").unlink()
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "corpus file not found" in err


def test_transport_missing_score_table_is_a_config_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "scores.csv").unlink()
    code, _, err = run_cli(["transport", "--config", str(config)])
    assert code == 1
    assert "score table file not found" in err


def test_transport_non_utf8_score_table_is_a_data_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    scores = tmp_path / "scores.csv"
    scores.write_bytes(scores.read_bytes() + b"alpha\xff,toy,src,train,50\n")
    code, _, err = run_cli(["transport", "--config", str(config)])
    assert code == 2
    assert "data error" in err
    assert "not valid UTF-8" in err


def test_config_non_utf8_is_a_config_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"out_dir": "o\xff"}')
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "config error" in err
    assert "config is not valid UTF-8" in err
    assert "byte offset 14" in err


def test_fit_non_utf8_similarity_artifact_is_a_data_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    for stage in ("ingest", "similarity"):
        assert run_cli([stage, "--config", str(config)])[0] == 0
    similarity = tmp_path / "out" / "similarity.json"
    similarity.write_bytes(similarity.read_bytes().replace(b'"src"', b'"src\xff"', 1))
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 2
    assert "data error" in err
    assert "artifact similarity.json is not valid UTF-8" in err


@pytest.mark.parametrize("content", [b"{not json", b'{"domains": {"src\xff": {}}}', b"[]", b'{"domains": []}'],
                         ids=["bad-json", "non-utf8", "list", "domains-list"])
def test_ingest_rebuilds_a_corrupt_stamp(tmp_path, content):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    stamp = tmp_path / "out" / "cache" / "stage-ingest.json"
    good = stamp.read_bytes()
    stamp.write_bytes(content)
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert code == 0, err
    assert out.count("ingested: ") == 4  # nothing in the unreadable stamp is trusted
    assert stamp.read_bytes() == good


def break_fit_list(summary):
    summary["fits"]["alpha-sys"] = []
    return summary


def break_fit_file(summary):
    summary["fits"]["alpha-sys"]["kl"]["file"] = 5
    return summary


def break_fit_field(field, value):
    def edit(summary):
        summary["fits"]["alpha-sys"]["kl"][field] = value
        return summary
    return edit


def break_mean_mae(summary):
    summary["mean_mae"]["kl"] = "x"
    return summary


def break_record(field, value):
    def edit(similarity):
        similarity["records"][0][field] = value
        return similarity
    return edit


def break_records(similarity):
    similarity["records"] = {"0": similarity["records"][0]}
    return similarity


def break_model(fit):
    fit["model"]["b"] = "x"
    return fit


def stage_argv(stage, config, path):
    """The command line that runs ``stage`` on the shared test tree; ``predict`` reads the fit file ``path``."""
    return ["predict", "--model", str(path), "--x", "0.5"] if stage == "predict" else [stage, "--config", str(config)]


def set_reports(reports):
    def edit(transport):
        transport["reports"] = reports
        return transport
    return edit


@pytest.mark.parametrize("stage, name, edit, message", [
    ("fit", "similarity.json", lambda _: [], "similarity.json: expected a JSON object"),
    ("report", "similarity.json", lambda _: [], "similarity.json: expected a JSON object"),
    ("fit", "similarity.json", break_record("lexical_difference", "x"),
     "similarity.json: record 0: 'lexical_difference' must be a number"),
    ("report", "similarity.json", break_record("lexical_difference", "x"),
     "similarity.json: record 0: 'lexical_difference' must be a number"),
    ("fit", "similarity.json", break_record("target_id", 5), "similarity.json: record 0: 'target_id' must be a string"),
    ("report", "similarity.json", break_record("target_id", 5),
     "similarity.json: record 0: 'target_id' must be a string"),
    ("report", "similarity.json", break_record("kl_divergence", None),
     "similarity.json: record 0: 'kl_divergence' must be a number"),
    ("fit", "similarity.json", break_records, "similarity.json: 'records' must be a list of objects"),
    ("report", "similarity.json", break_records, "similarity.json: 'records' must be a list of objects"),
    ("predict", "fit-alpha-sys-kl.json", break_model, "fit-alpha-sys-kl.json: model: 'b' must be a number"),
    ("report", "fit_summary.json", break_fit_list, "fit_summary.json: 'fits' must map systems to fit entries"),
    ("report", "fit_summary.json", break_fit_file, "fit_summary.json: 'fits' must map systems to fit entries"),
    ("report", "fit_summary.json", break_fit_field("a", "x"), "fit_summary.json: fit alpha-sys/kl: 'a' must be a number"),
    ("report", "fit_summary.json", break_fit_field("mae", None), "fit_summary.json: fit alpha-sys/kl: 'mae' must be a number"),
    ("report", "fit_summary.json", break_fit_field("sse", True), "fit_summary.json: fit alpha-sys/kl: 'sse' must be a number"),
    ("report", "fit_summary.json", break_fit_field("n", 2.5), "fit_summary.json: fit alpha-sys/kl: 'n' must be an integer"),
    ("report", "fit_summary.json", break_mean_mae, "fit_summary.json: 'mean_mae' must map predictors to numbers or null"),
    ("report", "transport.json", set_reports([{"system": "x"}]),
     "transport.json: report 0: 'source' must be a dataset/split object"),
    ("report", "transport.json", set_reports(["x"]), "transport.json: 'reports' must be a non-empty list of objects"),
    ("report", "transport.json", set_reports([]), "transport.json: 'reports' must be a non-empty list of objects"),
], ids=["fit-similarity-list", "report-similarity-list", "fit-record-string-x", "report-record-string-x",
        "fit-record-int-target", "report-record-int-target", "report-record-null-kl", "fit-records-object",
        "report-records-object", "predict-fit-model-string", "report-fits-list", "report-fit-file-number",
        "report-a-string", "report-mae-null", "report-sse-bool", "report-n-float", "report-mean-mae-string",
        "report-reports-fields", "report-reports-string", "report-reports-empty"])
def test_a_malformed_artifact_is_a_data_error(tmp_path, stage, name, edit, message):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    reports = {n: (out / n).read_bytes() for n in ("report.json", "report.txt", "fit_summary.json") if n != name}
    path = out / name
    path.write_text(json.dumps(edit(read_json(path))), encoding="utf-8")
    code, _, err = run_cli(stage_argv(stage, config, path))
    assert code == 2
    assert "data error" in err
    assert f"corrupt artifact {message}" in err
    # refused before the first write: the last good report is left as it was
    assert {n: (out / n).read_bytes() for n in reports} == reports


@pytest.mark.parametrize("stage, name, edit, message", [
    ("fit", "similarity.json", lambda path: b"{not json",
     "corrupt artifact similarity.json: Expecting property name enclosed in double quotes"),
    ("similarity", "cache/profile-news.json",
     lambda path: json.dumps({**json.loads(path.read_bytes()), "profile": []}).encode(),
     "corrupt profile artifact for domain 'news'"),
    # another file's artifact, with a valid stamp: only its contents say whose data it holds
    ("similarity", "cache/profile-news.json", lambda path: path.with_name("profile-social.json").read_bytes(),
     "corrupt profile artifact for domain 'news': it holds domain 'social'"),
    ("predict", "fit-beta-sys-kl.json", lambda path: b"{not json",
     "corrupt artifact fit-beta-sys-kl.json: Expecting property name enclosed in double quotes"),
], ids=["artifact-not-json", "profile-not-an-object", "profile-of-another-domain", "fit-not-json"])
def test_an_artifact_that_cannot_be_read_is_a_data_error(tmp_path, stage, name, edit, message):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    path = tmp_path / "out" / name
    path.write_bytes(edit(path))
    before = tree_digests(tmp_path / "out")
    code, _, err = run_cli(stage_argv(stage, config, path))
    assert code == 2
    assert f"data error: {message}" in err
    assert tree_digests(tmp_path / "out") == before  # refused before the first write


def _set(field, value):
    return lambda profile: profile.__setitem__(field, value)


def _first_count(value):
    return lambda profile: profile["counts"].__setitem__(0, value)


def _swap_first_terms(profile):
    profile["terms"][:2] = profile["terms"][1::-1]


def _old_layout(profile):
    profile["term_freq"] = dict(zip(profile.pop("terms"), profile.pop("counts")))


# {t0} and {t1} stand for the profile's first two terms, {n} for its number of terms
@pytest.mark.parametrize("edit, message", [
    (_set("terms", "w1"), "profile terms must be a list of strings"),
    (_set("terms", {"w1": 1}), "profile terms must be a list of strings"),
    (lambda p: p["terms"].__setitem__(0, 7), "profile terms must be a list of strings"),
    (_swap_first_terms, "profile terms must be strictly ascending: {t0!r} follows {t1!r}"),
    (lambda p: p["terms"].__setitem__(1, p["terms"][0]),
     "profile terms must be strictly ascending: {t0!r} follows {t0!r}"),
    (_set("counts", "1"), "profile counts must be a list of integers"),
    (lambda p: p["counts"].append(1), "profile counts must hold one count per term: {n_plus_1} counts for {n} terms"),
    (lambda p: p["counts"].pop(), "profile counts must hold one count per term: {n_minus_1} counts for {n} terms"),
    (_first_count("x"), "profile counts entry for term {t0!r} is not a positive 64-bit integer: 'x'"),
    (_first_count(True), "profile counts entry for term {t0!r} is not a positive 64-bit integer: True"),
    (_first_count(2.7), "profile counts entry for term {t0!r} is not a positive 64-bit integer: 2.7"),
    (_first_count(1.0), "profile counts entry for term {t0!r} is not a positive 64-bit integer: 1.0"),
    (_first_count(0), "profile counts entry for term {t0!r} is not a positive 64-bit integer: 0"),
    (_first_count(-3), "profile counts entry for term {t0!r} is not a positive 64-bit integer: -3"),
    (_first_count(2**63), "profile counts entry for term {t0!r} is not a positive 64-bit integer: 9223372036854775808"),
    (_old_layout, "profile payload missing key: 'terms'"),
    (_set("embedding", [0.6, "x"]), "profile embedding must be a list of finite numbers"),
    (_set("tokenizer_hash", 5), "profile tokenizer_hash must be a string"),
    (_set("tokenizer_hash", ["x"]), "profile tokenizer_hash must be a string"),
    (_set("embedding_hash", 5), "profile embedding_hash must be a string"),
    (_set("embedding_hash", ["x"]), "profile embedding_hash must be a string"),
    (_set("embedding_config", {"bogus": 1}),
     "profile embedding_config is malformed: unknown embedding fields: ['bogus']"),
    (_set("embedding_config", {"dimension": 1}), "profile embedding_config is malformed: embedding dimension must be"),
    *[(_set("embedding_config", value), "profile embedding_config is malformed: embedding must be an object")
      for value in (0, "", [], False)],
    (_set("embedding_config", {}), "profile embedding_config does not hash to its embedding_hash"),
    (lambda p: p["embedding_config"].__setitem__("seed", 7),
     "profile embedding_config does not hash to its embedding_hash"),
], ids=["terms-string", "terms-object", "terms-number-entry", "terms-unsorted", "terms-duplicate", "counts-string",
        "counts-longer", "counts-shorter", "string-count", "bool-count", "float-count", "integral-float-count",
        "zero-count", "negative-count", "beyond-int64-count", "term-freq-object", "string-component",
        "tokenizer-hash-number", "tokenizer-hash-list", "embedding-hash-number", "embedding-hash-list",
        "config-unknown-field", "config-bad-value", "config-zero", "config-empty-string", "config-list", "config-false",
        "config-empty-object", "config-other-seed"])
def test_similarity_refuses_a_malformed_cached_profile(tmp_path, edit, message):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    path = tmp_path / "out" / "cache" / "profile-news.json"
    artifact = read_json(path)
    terms = artifact["profile"]["terms"]
    message = message.format(t0=terms[0], t1=terms[1], n=len(terms), n_plus_1=len(terms) + 1,
                             n_minus_1=len(terms) - 1)
    edit(artifact["profile"])
    path.write_text(json.dumps(artifact), encoding="utf-8")
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert code == 2
    assert err.startswith(f"data error: {message}")
    assert not (tmp_path / "out" / "similarity.json").exists()


@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
@pytest.mark.parametrize("domain, side", [("src", "source"), ("news", "target")])
def test_similarity_refuses_a_cached_profile_with_an_empty_vocabulary(tmp_path, weighting, domain, side):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("embedding", "weighting", value=weighting))
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    path = tmp_path / "out" / "cache" / f"profile-{domain}.json"
    artifact = read_json(path)
    artifact["profile"].update(terms=[], counts=[])
    path.write_text(json.dumps(artifact), encoding="utf-8")
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert (code, err) == (3, f"computation error: empty {side} vocabulary for domain {domain!r}\n")
    assert not (tmp_path / "out" / "similarity.json").exists()


def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    before = (out / "transport.json").read_bytes()
    tree = snapshot(out)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run_cli(["transport", "--config", str(config), "--bias-corrected"])
    assert code == 4
    assert "io error: disk full" in err
    assert (out / "transport.json").read_bytes() == before
    # no temporary file is left: the tree, the stage's stamp included, is as it was before the failed run
    assert snapshot(out) == tree


def test_an_out_dir_that_is_a_file_is_an_io_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 4
    assert err.startswith("io error: ") and str(tmp_path / "out") in err
    assert (tmp_path / "out").read_text(encoding="utf-8") == "not a directory"


def test_python_m_runs_the_cli(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "domainport.cli", "ingest", "--config", str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 4
    assert done.stderr.startswith("io error: ")


def test_a_full_disk_mid_run_is_an_io_error_that_a_clean_rerun_recovers_from(tmp_path, monkeypatch):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    for stage in ("ingest", "similarity", "transport"):
        assert run_cli([stage, "--config", str(config)])[0] == 0

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if Path(file).name.startswith(".fit_summary.json."):
            def write(data):  # half the bytes land, then the disk is full
                fh.raw.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 4
    assert f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out / 'fit_summary.json'}'" in err
    assert not (out / "fit_summary.json").exists()
    assert [p.name for p in out.rglob("*") if p.name.endswith(".tmp")] == []
    monkeypatch.undo()
    run_full_pipeline(config)
    assert tree_digests(out) == GOLDEN


COLD_RUN_WRITES = 31  # the _write_text calls of a cold five-stage run on the conftest tree


def count_writes(monkeypatch):
    """Record the path of every ``_write_text`` call from now on, in a list that is returned."""
    calls = []
    write_text = cli._write_text

    def counting_write_text(path, text):
        calls.append(path)
        return write_text(path, text)

    monkeypatch.setattr(cli, "_write_text", counting_write_text)
    return calls


def test_a_cold_run_makes_the_writes_the_fault_sweep_covers(tmp_path, monkeypatch):
    calls = count_writes(monkeypatch)
    run_full_pipeline(write_pipeline_tree(tmp_path))
    assert len(calls) == COLD_RUN_WRITES


@pytest.mark.parametrize("fault, code, message", [
    (lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 4, "io error: "),
    (KeyboardInterrupt, 130, "interrupted"),
], ids=["enospc", "interrupt"])
@pytest.mark.parametrize("index", range(COLD_RUN_WRITES))
def test_a_fault_at_any_write_of_a_cold_run_exits_with_its_code_and_a_clean_rerun_recovers(
        tmp_path, monkeypatch, index, fault, code, message):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    calls = count_writes(monkeypatch)
    replace = os.replace

    def failing_replace(src, dst):  # the temporary file is written: the fault runs the cleanup path
        if len(calls) == index + 1:
            raise fault()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    for stage in ("ingest", "similarity", "transport", "fit", "report"):
        got, _, err = run_cli([stage, "--config", str(config)])
        if got != 0:
            break
    assert len(calls) == index + 1  # the stage stopped at the faulty write
    assert got == code
    assert message in err
    assert [p.name for p in out.rglob("*") if p.name.endswith(".tmp") or p.name == ".lock"] == []
    monkeypatch.undo()
    run_full_pipeline(config)
    assert tree_digests(out) == GOLDEN


# holds flock on the path in argv[1] until its standard input closes
HOLD_LOCK = """\
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""


def test_lock_file_blocks_concurrent_runs(tmp_path):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out / ".lock")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        code, _, err = run_cli(["ingest", "--config", str(config)])
        assert code == 1
        assert "locked by another run" in err
        assert not (out / "cache").exists()
    finally:
        holder.stdin.close()
        holder.wait(timeout=30)
    assert holder.returncode == 0
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert not (out / ".lock").exists()


def test_a_lock_file_left_by_a_dead_run_blocks_nothing(tmp_path):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("12345\n", encoding="ascii")  # no process holds it
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 0, err
    assert not (out / ".lock").exists()


def test_stages_demand_their_prerequisites(tmp_path):
    config = write_pipeline_tree(tmp_path)
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert code == 1
    assert "run the ingest stage first" in err

    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 1
    assert "config error: missing stage outputs: similarity.json (run the similarity stage first)\n" == err


# ---------------------------------------------------------------- fit stage


def test_fit_recovers_a_curve_planted_in_the_scores(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0

    records = read_json(tmp_path / "out" / "similarity.json")["records"]
    xs = {r["target_id"]: r["kl_divergence"] for r in records}
    assert len(set(xs.values())) == 4  # distinct predictor values per target

    rows = ["system,task,dataset,split,score"]
    for dataset, x in xs.items():
        split = "train" if dataset == "src" else "test"
        y = 50.0 * math.exp(-0.8 * x) + 40.0
        rows.append(f"alpha-sys,toy,{dataset},{split},{y!r}")
    (tmp_path / "scores.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    code, _, err = run_cli(["fit", "--config", str(config), "--predictor", "kl"])
    assert code == 0, err
    summary = read_json(tmp_path / "out" / "fit_summary.json")
    assert summary["mean_mae"]["kl"] < 1e-6
    model = summary["fits"]["alpha-sys"]["kl"]
    assert model["a"] == pytest.approx(50.0, abs=1e-4)
    assert model["b"] == pytest.approx(0.8, abs=1e-4)
    assert model["c"] == pytest.approx(40.0, abs=1e-4)


def test_fit_skips_systems_with_too_few_joinable_points(tmp_path):
    config = write_pipeline_tree(tmp_path)

    def drop_join_keys(raw):
        for spec in raw["corpora"]:
            if spec["domain_id"] in ("social", "science"):
                spec.pop("dataset")
                spec.pop("split")

    edit_config(config, drop_join_keys)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 0
    assert "warning: skipping fit" in err
    summary = read_json(tmp_path / "out" / "fit_summary.json")
    assert summary["fits"] == {}
    assert len(summary["skipped"]) == 6  # 2 systems x 3 predictors
    assert all(entry["points"] == 2 for entry in summary["skipped"])
    assert all(v is None for v in summary["mean_mae"].values())


def test_fit_drops_a_point_the_score_table_cannot_join(tmp_path):
    config = write_pipeline_tree(tmp_path)
    scores = tmp_path / "scores.csv"
    rows = scores.read_text(encoding="utf-8").splitlines()
    rows.remove("beta-sys,toy,science,test,57.0")
    scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for stage in ("ingest", "similarity", "fit"):
        code, _, err = run_cli([stage, "--config", str(config)])
        assert code == 0, err
    assert fit_points(tmp_path / "out") == {
        (system, predictor): 4 if system == "alpha-sys" else 3
        for system in ("alpha-sys", "beta-sys") for predictor in ("lexical", "cosine", "kl")
    }
    assert read_json(tmp_path / "out" / "fit_summary.json")["skipped"] == []


def test_identical_corpora_make_fitting_impossible(tmp_path):
    config = write_pipeline_tree(tmp_path)
    src_text = (tmp_path / "corpora" / "src.txt").read_text(encoding="utf-8")
    for name in ("news", "social", "science"):
        (tmp_path / "corpora" / f"{name}.txt").write_text(src_text, encoding="utf-8")
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 3
    assert "no predictor variation" in err


def test_scores_whose_squared_error_overflows_make_fitting_impossible(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("scores", "metric", value="perplexity"))  # no [0, 100] check
    scores = tmp_path / "scores.csv"
    header, *rows = scores.read_text(encoding="utf-8").splitlines()
    rows = [row.rsplit(",", 1)[0] + f",{float(row.rsplit(',', 1)[1]) * 1e158!r}" for row in rows]
    scores.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    for stage in ("ingest", "similarity", "transport"):
        assert run_cli([stage, "--config", str(config)])[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 3
    assert "squared error overflows" in err
    assert not (tmp_path / "out" / "fit_summary.json").exists()


# ---------------------------------------------------------------- stage stamps

STAMPED = ("similarity", "transport", "fit", "report")


def snapshot(root):
    return {p.relative_to(root).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_second_run_is_up_to_date_and_writes_nothing(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    before = snapshot(out)
    assert {f"cache/stage-{stage}.json" for stage in STAMPED} <= set(before)
    for stage in STAMPED:
        code, stdout, _ = run_cli([stage, "--config", str(config)])
        assert code == 0
        assert stdout == f"{stage}: up to date\n"
    assert snapshot(out) == before


def test_each_stage_reads_each_file_once(tmp_path, monkeypatch):
    config = write_pipeline_tree(tmp_path)
    reads = Counter()
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    for _ in ("miss", "hit"):
        for stage in ("ingest", *STAMPED):
            reads.clear()
            assert run_cli([stage, "--config", str(config)])[0] == 0
            assert reads and max(reads.values()) == 1, (stage, reads)


def rewrite_profile(root):
    profile = root / "out" / "cache" / "profile-news.json"
    profile.write_text(json.dumps(read_json(profile)), encoding="utf-8")  # same content, new bytes


def comment_score_table(root):
    scores = root / "scores.csv"
    scores.write_bytes(b"# rescored\n" + scores.read_bytes())


@pytest.mark.parametrize("stage, args, mutate", [
    ("similarity", [], rewrite_profile),
    ("transport", [], comment_score_table),
    ("fit", [], comment_score_table),
    ("similarity", ["--kl-direction", "reverse"], None),
    ("transport", ["--bias-corrected"], None),
    ("fit", ["--predictor", "kl"], None),
    ("report", ["--allow-partial"], None),
    ("transport", [], lambda root: (root / "out" / "transport.txt").write_text("edited\n", encoding="utf-8")),
    ("fit", [], lambda root: (root / "out" / "curve-beta-sys-kl.csv").unlink()),
], ids=["profile", "scores-transport", "scores-fit", "kl-direction", "bias-corrected", "predictor",
        "allow-partial", "edited-output", "deleted-output"])
def test_a_changed_input_setting_or_output_reruns_the_stage(tmp_path, stage, args, mutate):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    if mutate is not None:
        mutate(tmp_path)
    code, stdout, err = run_cli([stage, "--config", str(config), *args])
    assert code == 0, err
    assert "up to date" not in stdout
    code, stdout, _ = run_cli([stage, "--config", str(config), *args])
    assert (code, stdout) == (0, f"{stage}: up to date\n")


@pytest.mark.parametrize("content", [b"{not json", b'{"key": "\xff"}', b"[]", b"{}"],
                         ids=["bad-json", "non-utf8", "list", "no-keys"])
def test_a_malformed_stamp_is_a_miss(tmp_path, content):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    stamp = tmp_path / "out" / "cache" / "stage-transport.json"
    good = stamp.read_bytes()
    stamp.write_bytes(content)
    code, stdout, err = run_cli(["transport", "--config", str(config)])
    assert code == 0, err
    assert stdout == "transport: 2 system report(s)\n"
    assert stamp.read_bytes() == good


def test_a_failed_stage_is_not_up_to_date_on_a_rerun(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    src_text = (tmp_path / "corpora" / "src.txt").read_text(encoding="utf-8")
    for name in ("news", "social", "science"):
        (tmp_path / "corpora" / f"{name}.txt").write_text(src_text, encoding="utf-8")
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    for _ in range(2):  # the stamp the failed run left in place does not make the rerun a hit
        code, stdout, err = run_cli(["fit", "--config", str(config)])
        assert code == 3, err
        assert "up to date" not in stdout


def test_a_rerun_after_a_failed_run_removes_the_outputs_it_no_longer_writes(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    kl_files = {"fit-alpha-sys-kl.json", "fit-beta-sys-kl.json", "curve-alpha-sys-kl.csv", "curve-beta-sys-kl.csv"}
    assert kl_files <= {p.name for p in out.iterdir()}
    edit_config(config, set_key("fit", "predictors", value=["lexical", "cosine"]))
    similarity = (out / "similarity.json").read_bytes()
    (out / "similarity.json").write_text("[]", encoding="utf-8")
    assert run_cli(["fit", "--config", str(config)])[0] == 2
    (out / "similarity.json").write_bytes(similarity)
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 0, err
    assert not kl_files & {p.name for p in out.iterdir()}


def test_rerunning_without_stamps_gives_the_same_tree(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    before = {name: data for name, (data, _) in snapshot(out).items()}
    for stamp in (out / "cache").glob("stage-*.json"):
        stamp.unlink()
    run_full_pipeline(config)
    assert {name: data for name, (data, _) in snapshot(out).items()} == before


# ---------------------------------------------------------------- stage table


def test_ingest_reingests_a_corpus_whose_text_unit_changes(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    edit_config(config, lambda raw: raw["corpora"][1].update({"text_unit": "paragraph"}))
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert "ingested: news (1 documents, " in out  # the three lines are one paragraph
    assert out.count("cache hit:") == 3


def test_ingest_reingests_a_jsonl_corpus_whose_fields_change(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / "pairs.jsonl").write_text('{"premise": "alpha beta", "hypothesis": "gamma"}\n',
                                                     encoding="utf-8")
    edit_config(config, lambda raw: raw["corpora"].append(
        {"domain_id": "pairs", "path": "corpora/pairs.jsonl", "format": "jsonl", "fields": ["premise"]}))
    profile = tmp_path / "out" / "cache" / "profile-pairs.json"
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert columns(read_json(profile)) == (["alpha", "beta"], [1, 1])
    edit_config(config, lambda raw: raw["corpora"][4].update({"fields": ["premise", "hypothesis"]}))
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert "ingested: pairs" in out and out.count("cache hit:") == 4
    assert columns(read_json(profile)) == (["alpha", "beta", "gamma"], [1, 1, 1])


# report reads fit_summary.json first, and fit's hash covers those of similarity and transport
@pytest.mark.parametrize("stage, edit, upstream, reruns", [
    ("similarity", set_key("embedding", "seed", value=99), "ingest", ["ingest"]),
    ("similarity", set_key("tokenizer", value={"lowercase": False}), "ingest", ["ingest"]),
    ("similarity", set_key("corpora", 1, "text_unit", value="paragraph"), "ingest", ["ingest"]),
    ("fit", set_key("kl", value={"direction": "reverse"}), "similarity", ["similarity"]),
    ("report", set_key("kl", value={"direction": "reverse"}), "fit", ["similarity", "fit"]),
    ("report", set_key("transport", "bias_corrected", value=True), "fit", ["transport", "fit"]),
    ("report", set_key("fit", "predictors", value=["kl"]), "fit", ["fit"]),
], ids=["similarity-seed", "similarity-tokenizer", "similarity-text-unit", "fit-kl", "report-kl", "report-transport",
        "report-predictors"])
def test_a_stage_refuses_an_input_written_under_other_settings(tmp_path, stage, edit, upstream, reruns):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    before = {name: data for name, (data, _) in snapshot(out).items()}
    edit_config(config, edit)
    code, stdout, err = run_cli([stage, "--config", str(config)])
    assert (code, stdout) == (1, "")
    assert f"config error: stale: rerun {upstream} (" in err
    after = {name: data for name, (data, _) in snapshot(out).items()}
    assert {name: data for name, data in after.items() if not name.startswith("cache/stage-")} == {
        name: data for name, data in before.items() if not name.startswith("cache/stage-")}
    for rerun in [*reruns, stage]:
        assert run_cli([rerun, "--config", str(config)])[0] == 0, rerun


def test_a_new_seed_reruns_every_stage_downstream_of_ingest(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    edit_config(config, set_key("embedding", "seed", value=99))
    assert "stale: rerun ingest" in run_cli(["similarity", "--config", str(config)])[2]
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0 and out.count("ingested:") == 4
    for stage in STAMPED:
        code, stdout, err = run_cli([stage, "--config", str(config)])
        assert code == 0, err
        assert (stdout == f"{stage}: up to date\n") == (stage == "transport"), stage


def test_new_predictors_leave_similarity_and_transport_up_to_date(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    edit_config(config, set_key("fit", "predictors", value=["lexical", "cosine"]))
    for stage in STAMPED:
        code, stdout, err = run_cli([stage, "--config", str(config)])
        assert code == 0, err
        assert (stdout == f"{stage}: up to date\n") == (stage in ("similarity", "transport")), stage
    assert set(read_json(tmp_path / "out" / "report.json")["fits"]["mean_mae"]) == {"lexical", "cosine"}


def test_a_rerun_removes_the_outputs_it_no_longer_writes(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    kl_files = {"fit-alpha-sys-kl.json", "fit-beta-sys-kl.json", "curve-alpha-sys-kl.csv",
                "curve-beta-sys-kl.csv", "plot-kl.csv"}
    before = {p.name for p in out.iterdir()}
    assert kl_files <= before
    edit_config(config, set_key("fit", "predictors", value=["lexical", "cosine"]))
    run_full_pipeline(config)
    assert {p.name for p in out.iterdir()} == before - kl_files


def test_a_stamp_naming_a_file_outside_the_output_directory_removes_nothing(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    outside = tmp_path / "x"
    outside.write_text("keep me", encoding="utf-8")
    stamp_path = tmp_path / "out" / "cache" / "stage-fit.json"
    stamp = read_json(stamp_path)
    stamp["outputs"].update({"../x": "0" * 16, str(outside): "0" * 16})
    stamp_path.write_text(json.dumps(stamp), encoding="utf-8")
    code, stdout, err = run_cli(["fit", "--config", str(config)])
    assert code == 0, err
    assert stdout != "fit: up to date\n"
    assert outside.read_text(encoding="utf-8") == "keep me"
    assert set(read_json(stamp_path)["outputs"]) == set(stamp["outputs"]) - {"../x", str(outside)}


def test_a_rerun_leaves_a_file_its_old_stamp_names_that_another_stage_writes(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    plot = (out / "plot-kl.csv").read_bytes()
    # a report stamp as an older version wrote it: it lists the plot files, which fit now writes
    stamp_path = out / "cache" / "stage-report.json"
    stamp = read_json(stamp_path)
    stamp["key"] = "0" * 16
    stamp["outputs"]["plot-kl.csv"] = hashlib.sha256(plot).hexdigest()[:16]
    stamp_path.write_text(json.dumps(stamp), encoding="utf-8")
    assert run_cli(["report", "--config", str(config)]) == (0, "report written\n", "")
    assert (out / "plot-kl.csv").read_bytes() == plot
    assert "plot-kl.csv" not in read_json(stamp_path)["outputs"]
    assert "plot-kl.csv" in read_json(out / "cache" / "stage-fit.json")["outputs"]


def test_a_stage_that_writes_another_pattern_misses_its_stamp(tmp_path, monkeypatch):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    row = cli.STAGES["fit"]
    monkeypatch.setitem(cli.STAGES, "fit", row._replace(writes=(*row.writes, "extra-*.csv")))
    code, stdout, err = run_cli(["fit", "--config", str(config)])
    assert code == 0, err
    assert stdout != "fit: up to date\n"
    assert run_cli(["fit", "--config", str(config)]) == (0, "fit: up to date\n", "")


@pytest.mark.parametrize("stage", ["similarity", "transport", "fit", "report"])
def test_a_hit_parses_no_input(tmp_path, monkeypatch, stage):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    parsed = []
    monkeypatch.setattr(cli, "_parse_artifact", lambda raw, path: parsed.append(path.name))
    monkeypatch.setattr(cli, "profile_from_dict", lambda data: parsed.append("profile"))
    monkeypatch.setattr(cli, "load_score_table", lambda *args, **kwargs: parsed.append("scores"))
    assert run_cli([stage, "--config", str(config)]) == (0, f"{stage}: up to date\n", "")
    assert parsed == []


@pytest.mark.parametrize("stage, flags, downstream", [
    ("ingest", ["--seed", "7"], "similarity"),
    ("similarity", ["--kl-direction", "reverse"], "fit"),
    ("similarity", ["--targets", "news,social,science"], "fit"),
    ("transport", ["--bias-corrected"], "report"),
    ("fit", ["--predictor", "kl"], "report"),
    ("transport", ["--no-bias-corrected"], "report"),
], ids=["seed-similarity", "kl-direction-fit", "targets-fit", "bias-corrected-report", "predictor-report",
        "no-bias-corrected-report"])
def test_a_stage_reads_what_a_flag_override_wrote(tmp_path, stage, flags, downstream):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    assert run_cli([stage, "--config", str(config), *flags])[0] == 0
    code, stdout, err = run_cli([downstream, "--config", str(config)])
    assert code == 0, err
    assert stdout != f"{downstream}: up to date\n"
    assert run_cli([downstream, "--config", str(config)]) == (0, f"{downstream}: up to date\n", "")


def test_the_overrides_an_artifact_records_travel_downstream(tmp_path):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    run_full_pipeline(config)
    assert "overrides" not in read_json(out / "similarity.json")
    assert run_cli(["ingest", "--config", str(config), "--seed", "7"])[0] == 0
    for stage in ("similarity", "fit", "report"):
        flags = ["--predictor", "kl", "--predictor", "kl"] if stage == "fit" else []  # a repeat counts once
        assert run_cli([stage, "--config", str(config), *flags])[0] == 0, stage
    seed = {"embedding": {"seed": 7}}
    assert read_json(out / "cache" / "profile-src.json")["overrides"] == seed
    assert read_json(out / "similarity.json")["overrides"] == seed
    assert read_json(out / "fit_summary.json")["overrides"] == {**seed, "fit": {"predictors": ["kl"]}}
    assert read_json(out / "report.json")["overrides"] == {**seed, "fit": {"predictors": ["kl"]}}
    assert "overrides" not in read_json(out / "transport.json")
    assert (out / "plot-kl.csv").read_text(encoding="utf-8").startswith(
        f"#config_hash={read_json(out / 'fit_summary.json')['config_hash']},")

    # the flag pins the seed, so a new seed in the config changes no output; a new dimension is refused
    similarity = (out / "similarity.json").read_bytes()
    edit_config(config, set_key("embedding", "seed", value=99))
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    assert (out / "similarity.json").read_bytes() == similarity
    edit_config(config, set_key("embedding", "dimension", value=16))
    assert "config error: stale: rerun ingest (" in run_cli(["similarity", "--config", str(config)])[2]


def test_a_seed_flag_equal_to_the_config_seed_still_reingests(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    code, out, _ = run_cli(["ingest", "--config", str(config), "--seed", "42"])
    assert code == 0 and out.count("ingested:") == 4  # the profiles now record the flag
    assert run_cli(["ingest", "--config", str(config), "--seed", "42"])[1].count("cache hit:") == 4


def test_a_flag_equal_to_the_config_value_still_reruns_its_stage(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    code, out, _ = run_cli(["similarity", "--config", str(config), "--kl-direction", "forward"])
    assert code == 0 and out != "similarity: up to date\n"  # similarity.json now records the flag
    edit_config(config, set_key("kl", value={"direction": "reverse"}))
    assert run_cli(["fit", "--config", str(config)])[0] == 0


@pytest.mark.parametrize("overrides", [{"kl": {"mystery": 1}}, {"kl": 5}, {"nothing": {}}, {"kl": {"epsilon": "x"}},
                                       "x", {"kl": {"direction": "reverse"}}])
def test_overrides_that_do_not_apply_are_stale(tmp_path, overrides):
    config = write_pipeline_tree(tmp_path)
    for stage in ("ingest", "similarity"):
        assert run_cli([stage, "--config", str(config)])[0] == 0
    path = tmp_path / "out" / "similarity.json"
    path.write_text(json.dumps({**read_json(path), "overrides": overrides}), encoding="utf-8")
    code, stdout, err = run_cli(["fit", "--config", str(config)])
    assert (code, stdout) == (1, "")
    assert err == "config error: stale: rerun similarity (similarity.json has other settings)\n"


@pytest.mark.parametrize("reader, name, writer", [
    ("similarity", "cache/profile-news.json", "ingest"), ("fit", "similarity.json", "similarity"),
    ("report", "transport.json", "transport"), ("report", "fit_summary.json", "fit")])
@pytest.mark.parametrize("version", [domainport.__version__ + ".1", None], ids=["other", "absent"])
def test_a_stage_refuses_an_input_of_another_tool_version(tmp_path, reader, name, writer, version):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    path = tmp_path / "out" / name
    payload = read_json(path)
    del payload["tool_version"]
    if version is not None:
        payload["tool_version"] = version
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, stdout, err = run_cli([reader, "--config", str(config)])
    assert (code, stdout) == (1, "")
    assert err == f"config error: stale: rerun {writer} ({name} is from tool version {version!r})\n"


def test_similarity_refuses_profiles_from_two_ingest_runs_with_other_flags(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config), "--seed", "7"])[0] == 0
    profile = tmp_path / "out" / "cache" / "profile-news.json"
    seed_7 = profile.read_bytes()
    news = tmp_path / "corpora" / "news.txt"
    text = news.read_bytes()
    news.unlink()  # the next ingest fails for news and removes its profile
    assert run_cli(["ingest", "--config", str(config)])[0] == 1
    assert not profile.exists()
    news.write_bytes(text)
    profile.write_bytes(seed_7)  # put back by hand: a seed-7 profile beside seed-42 ones
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert code == 1
    assert "config error: stale: rerun ingest (cache/profile-news.json has other settings)" in err


def test_the_pipeline_runs_with_external_vectors(tmp_path):
    config = write_pipeline_tree(tmp_path)
    ids = ("src", "news", "social", "science")
    (tmp_path / "vectors.json").write_text(json.dumps({d: [1.0, float(i), 2.0] for i, d in enumerate(ids)}),
                                           encoding="utf-8")
    edit_config(config, set_key("external_embeddings", value="vectors.json"))
    run_full_pipeline(config)
    out = tmp_path / "out"
    profiles = [read_json(out / "cache" / f"profile-{d}.json")["profile"] for d in ids]
    assert len({p["embedding_hash"] for p in profiles}) == 1  # comparable: one file, one dimension
    assert [rec["target_id"] for rec in read_json(out / "similarity.json")["records"]] == list(ids)
    assert fit_points(out) == {(s, p): 4 for s in ("alpha-sys", "beta-sys") for p in ("lexical", "cosine", "kl")}


@pytest.mark.parametrize("name, content, message", [
    ("vectors.json", '{"src": [1, 0], "news": [0, 1], "social": [1, 1], "science": [1, 2], "news": [2, 1]}',
     "domain 'news' given twice"),
    ("vectors.csv", "domain_id,v0,v1\nsrc,1,0\nnews,0,1\nsocial,1,1\nscience,1,2\nnews,2,1\n",
     "line 6: domain 'news' given twice"),
], ids=["json", "csv"])
def test_ingest_refuses_external_vectors_that_give_a_domain_twice(tmp_path, name, content, message):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / name).write_text(content, encoding="utf-8")
    edit_config(config, set_key("external_embeddings", value=name))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 2
    assert message in err
    assert not list(tmp_path.rglob("profile-*.json"))


def test_ingest_reingests_the_corpora_whose_external_vectors_change(tmp_path):
    config = write_pipeline_tree(tmp_path)
    vectors = tmp_path / "vectors.json"
    ids = ("src", "news", "social", "science")
    vectors.write_text(json.dumps({d: [1.0, float(i), 2.0] for i, d in enumerate(ids)}), encoding="utf-8")
    edit_config(config, set_key("external_embeddings", value="vectors.json"))
    assert run_cli(["ingest", "--config", str(config)])[1].count("ingested:") == 4
    assert run_cli(["ingest", "--config", str(config)])[1].count("cache hit:") == 4
    vectors.write_text(json.dumps({d: [1.0, float(i), 2.0 + (d == "news")] for i, d in enumerate(ids)}),
                       encoding="utf-8")
    code, out, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0 and out.count("cache hit:") == 3 and "ingested: news" in out
    assert read_json(tmp_path / "out" / "cache" / "profile-news.json")["profile"]["embedding"] == [
        pytest.approx(x / 11 ** 0.5) for x in (1.0, 1.0, 3.0)]
    vectors.write_text(json.dumps({d: [1.0, float(i)] for i, d in enumerate(ids)}), encoding="utf-8")
    assert run_cli(["ingest", "--config", str(config)])[1].count("ingested:") == 4
    assert len(read_json(tmp_path / "out" / "cache" / "profile-src.json")["profile"]["embedding"]) == 2


README_PIPELINE = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split(
    "## Command-line pipeline", 1)[1].split("\n### ", 1)[0]


def test_the_readme_stage_table_matches_the_stage_table():
    rows = {stage: cells for stage, *cells in
            re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \| (.*?) \|$", README_PIPELINE, re.MULTILINE)}
    assert list(rows) == list(cli.STAGES)
    for stage, row in cli.STAGES.items():
        blocks, reads, writes = rows[stage]
        assert set(re.findall(r"`([\w-]+)`", blocks)) == set(row.blocks), stage
        assert re.findall(r"`([^`]+)`", reads) == list(row.reads), stage
        assert re.findall(r"`([^`]+)`", writes) == list(row.writes), stage


# ---------------------------------------------------------------- predict


def test_predict_agrees_with_the_library(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    model_path = tmp_path / "out" / "fit-alpha-sys-kl.json"
    code, out, _ = run_cli(["predict", "--model", str(model_path), "--x", "0.5"])
    assert code == 0
    model = fields_from_dict(FitModel, read_json(model_path)["model"], "model")
    assert float(out.strip()) == predict(model, 0.5)


def test_predict_rejects_bad_model_files(tmp_path):
    missing = tmp_path / "fit-none.json"
    code, _, err = run_cli(["predict", "--model", str(missing), "--x", "0.5"])
    assert code == 1
    assert "run the fit stage first" in err

    corrupt = tmp_path / "fit-corrupt.json"
    model = dataclasses.asdict(fit([(0.0, 90.0), (1.0, 60.0), (2.0, 50.0)]))
    for content, message, exit_code in [
        ({"model": {"a": 1.0}}, "model: 'b' must be a number", 2),
        ({"model": [1]}, "top level: 'model' must be an object", 2),
        ({"model": {"a": 1.0, "b": 0.5, "c": 0.0, "fit_log": "x"}}, "model: 'percent_scale' must be true or false", 2),
        ({"model": {**model, "fit_log": "x"}}, "fit_log must be an object", 2),
        ({"model": {**model, "percent_scale": "false"}}, "model: 'percent_scale' must be true or false", 2),
        (model, "top level: 'model' must be an object", 2),
        ({"model": {**model, "a": "2"}}, "model: 'a' must be a number", 2),
        ({"model": {k: v for k, v in model.items() if k != "sse"}}, "missing model fields: ['sse']", 2),
        ({"model": {**model, "slope": 1.0}}, "unknown model fields: ['slope']", 2),
        ({"model": {**model, "fit_log": {**model["fit_log"], "steps": 0}}}, "unknown fit_log fields: ['steps']", 2),
        ({"model": {**model, "a": math.inf}}, "model parameters are not finite", 3),
    ]:
        corrupt.write_text(json.dumps(content), encoding="utf-8")
        code, out, err = run_cli(["predict", "--model", str(corrupt), "--x", "0.5"])
        assert (code, out) == (exit_code, ""), content
        prefix = "data error: corrupt artifact fit-corrupt.json: " if exit_code == 2 else "computation error: "
        assert err == prefix + message + "\n"


# ---------------------------------------------------------------- report


def test_report_reads_no_fit_file(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    names = ["report.json", "report.txt", *sorted(p.name for p in out.glob("plot-*.csv"))]
    assert len(names) == 5
    before = {name: (out / name).read_bytes() for name in names}
    for path in out.glob("fit-*.json"):
        path.unlink()
    assert run_cli(["report", "--config", str(config)]) == (0, "report: up to date\n", "")
    assert run_cli(["report", "--config", str(config), "--allow-partial"]) == (0, "report written\n", "")
    assert {name: (out / name).read_bytes() for name in names} == before
    assert [(stage, field) for stage, row in cli.STAGES.items() for field in ("reads", "writes")
            if "fit-*.json" in getattr(row, field)] == [("fit", "writes")]


def test_report_requires_stages_unless_partial(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0

    code, _, err = run_cli(["report", "--config", str(config)])
    assert code == 1
    assert "missing stage outputs" in err

    code, _, _ = run_cli(["report", "--config", str(config), "--allow-partial"])
    assert code == 0
    report = read_json(tmp_path / "out" / "report.json")
    assert report["similarity"] == {"status": "absent"}
    assert report["transport"] == {"status": "absent"}
    assert report["fits"] == {"status": "absent"}
    assert "absent" in (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")


def test_report_renders_the_transport_table_from_transport_json(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"
    report = (out / "report.txt").read_bytes()
    table = [ln for ln in (out / "transport.txt").read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    assert "\n".join(table) in report.decode("utf-8")
    assert table[3].startswith("tau_p(near)") and table[4].startswith("tau_p(far)")  # config group order
    (out / "transport.txt").unlink()
    assert run_cli(["report", "--config", str(config)])[0] == 0
    assert (out / "report.txt").read_bytes() == report


# ---------------------------------------------------------------- config validation


def test_config_rejects_unknown_keys(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw.update({"outdir": "typo"}))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "unknown config keys" in err and "outdir" in err


def test_config_rejects_duplicate_domains(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw["corpora"].append(dict(raw["corpora"][0])))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "duplicate domain_id 'src'" in err


def test_config_rejects_domain_ids_that_share_a_file_name(tmp_path):
    # "news feed" and "news-feed" would both be cached as profile-news-feed.json
    config = write_pipeline_tree(tmp_path)

    def rename(raw):
        raw["corpora"][1]["domain_id"] = "news feed"
        raw["corpora"][2]["domain_id"] = "news-feed"

    edit_config(config, rename)
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "domain ids 'news feed' and 'news-feed' map to the same file name 'news-feed'" in err
    assert not (tmp_path / "out" / "cache").exists()


def test_slug_replaces_the_characters_that_the_per_character_rule_replaces():
    def loop_slug(name):  # the reference: the rule as a loop over characters
        out = []
        for ch in name:
            out.append(ch if ch.isalnum() or ch in "._-" else "-")
        return "".join(out) or "x"

    every = "".join(map(chr, range(0x110000)))  # every code point, surrogates included
    assert cli._slug(every) == loop_slug(every)
    assert cli._slug("") == loop_slug("") == "x"
    assert cli._slug("news feed/Straße_2.0") == "news-feed-Straße_2.0"


def test_config_refuses_a_string_with_a_lone_surrogate(tmp_path):
    # JSON's "\udc80" escape decodes to a lone surrogate, which no hash or file name can encode as UTF-8
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw["corpora"][1].update({"domain_id": "b\udc80"}))
    assert "\\udc80" in config.read_text(encoding="utf-8")
    code, out, err = run_cli(["ingest", "--config", str(config)])
    assert (code, out) == (1, "")
    assert err == "config error: config string 'b\\udc80' holds a lone surrogate, which is not valid UTF-8\n"
    assert not (tmp_path / "out").exists()
    edit_config(config, lambda raw: raw["corpora"][1].update({"domain_id": "news", "\udfff": 1}))
    assert run_cli(["ingest", "--config", str(config)])[2] == (
        "config error: config string '\\udfff' holds a lone surrogate, which is not valid UTF-8\n")
    edit_config(config, lambda raw: raw["corpora"][1].pop("\udfff"))
    # a surrogate pair is one character, and an escaped backslash is no escape
    edit_config(config, lambda raw: raw["corpora"][1].update({"domain_id": "b\U0001F642"}))
    edit_config(config, lambda raw: raw["scores"].update({"metric": "F1\\udc80"}))
    assert run_cli(["ingest", "--config", str(config)])[0] == 0


def test_fit_rejects_systems_that_share_a_file_name(tmp_path):
    # "alpha sys" and "alpha-sys" would both write fit-alpha-sys-*.json and curve-alpha-sys-*.csv
    config = write_pipeline_tree(tmp_path)
    scores = tmp_path / "scores.csv"
    rows = scores.read_text(encoding="utf-8").splitlines()
    rows += [row.replace("alpha-sys,", "alpha sys,", 1) for row in rows if row.startswith("alpha-sys,")]
    scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 1
    assert "systems 'alpha-sys' and 'alpha sys' map to the same file name 'alpha-sys'" in err
    assert not list((tmp_path / "out").glob("fit-*"))


def test_config_rejects_unknown_predictors(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw["fit"].update({"predictors": ["levenshtein"]}))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "unknown predictor 'levenshtein'" in err


def test_config_rejects_empty_transport_targets(tmp_path):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, lambda raw: raw["transport"].update({"targets": []}))
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "transport.targets must be non-empty" in err


def test_config_rejects_bad_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{nope", encoding="utf-8")
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "config is not valid JSON" in err


@pytest.mark.parametrize("edit, message", [
    (set_key("scores", "metrc", value="F1"), "unknown scores fields: ['metrc']"),
    (set_key("similarity", "target", value=["news"]), "unknown similarity fields: ['target']"),
    (set_key("fit", "predictor", value=["kl"]), "unknown fit fields: ['predictor']"),
    (set_key("transport", "targets", 0, "grp", value="far"), "unknown transport.targets[0] fields: ['grp']"),
    (set_key("transport", "source", value={"dataset": "src", "split": "train", "group": "near"}),
     "unknown transport.source fields: ['group']"),
    (set_key("fit", value=[]), "fit must be an object"),
    (set_key("scores", value=None), "scores must be an object"),
    (set_key("corpora", value=5), "corpora must be a list"),
    (set_key("transport", "targets", value=5), "transport.targets must be a list"),
    (set_key("tokenizer", value=[]), "tokenizer must be an object"),
    (set_key("kl", value={"epsilon": "x"}), "epsilon must be a positive finite number"),
    (set_key("fit", "predictors", value=["kl", "kl"]), "duplicate predictor 'kl'"),
    (set_key("transport", "systems", value=["alpha-sys", "beta-sys", "alpha-sys"]), "duplicate system 'alpha-sys'"),
    (set_key("corpora", 2, "encoding", value="utf-8"), "corpora[2]: unknown corpus fields: ['encoding']"),
    (lambda raw: raw["transport"].pop("task"), "missing transport fields: ['task']"),
    (set_key("scores", "path", value=5), "scores.path must be a path or null"),
    (set_key("external_embeddings", value=5), "external_embeddings must be a path or null"),
    (set_key("embedding", "seed", value="x"), "embedding seed must be an integer"),
    (set_key("transport", "bias_corrected", value="no"), "transport.bias_corrected must be true or false"),
    (set_key("out_dir", value=None), "out_dir must be a path"),
    (set_key("transport", "task", value=5), "transport.task must be a string"),
    (set_key("tokenizer", value={"lowercase": "no"}), "tokenizer lowercase must be true or false"),
    (set_key("tokenizer", value={"strip_punctuation": 0}), "tokenizer strip_punctuation must be true or false"),
    (set_key("tokenizer", value={"ngram_order": True}), "ngram_order must be an integer >= 1"),
    (set_key("embedding", "per_document", value="no"), "embedding per_document must be true or false"),
    (set_key("kl", value={"epsilon": True}), "epsilon must be a positive finite number"),
    (set_key("transport", "source", value="src"), "transport.source must be a dataset/split pair"),
    (lambda raw: raw["transport"]["targets"].append({"dataset": "news", "split": "test"}),
     "duplicate transport target ('news', 'test')"),
    (set_key("similarity", "targets", value=["news", "news", "social", "science"]),
     "duplicate similarity target 'news'"),
], ids=["scores-key", "similarity-key", "fit-key", "target-key", "source-key", "fit-list", "scores-null",
        "corpora-number", "targets-number", "tokenizer-list", "kl-epsilon-string", "duplicate-predictor",
        "duplicate-system", "corpus-key", "transport-task-missing", "scores-path-number", "external-number",
        "seed-string", "bias-corrected-string", "out-dir-null", "task-number", "lowercase-string",
        "strip-punctuation-number", "ngram-order-bool", "per-document-string", "kl-epsilon-bool",
        "source-string", "duplicate-transport-target", "duplicate-similarity-target"])
def test_config_rejects_a_malformed_block(tmp_path, edit, message):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, edit)
    for stage in ("ingest", "fit"):
        code, _, err = run_cli([stage, "--config", str(config)])
        assert code == 1
        assert f"config error: {message}\n" in err
    assert not (tmp_path / "out").exists()


def test_an_override_keeps_the_transport_groups(tmp_path):
    cfg = cli.load_config(write_pipeline_tree(tmp_path))
    corrected = dataclasses.replace(cfg.transport, bias_corrected=True)
    assert corrected.groups == cfg.transport.groups == {
        "near": (("news", "test"),), "far": (("social", "test"), ("science", "test"))}
    assert dataclasses.replace(corrected, bias_corrected=False) == cfg.transport


README_CONFIGURATION = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split(
    "### Configuration", 1)[1].split("\n### ", 1)[0]


@pytest.mark.parametrize("value", [None, False, ["news"], {"name": "news"}], ids=["null", "bool", "list", "object"])
@pytest.mark.parametrize("keys, field", [
    (("corpora", 1, "domain_id"), "corpora[1]: domain_id"),
    (("corpora", 1, "path"), "corpora[1]: path"),
    (("corpora", 1, "format"), "corpora[1]: format"),
    (("corpora", 1, "text_unit"), "corpora[1]: text_unit"),
    (("scores", "metric"), "scores.metric"),
    (("transport", "source", 0), "transport.source[0]"),
    (("transport", "targets", 1, "dataset"), "transport.targets[1].dataset"),
    (("transport", "targets", 1, "split"), "transport.targets[1].split"),
], ids=["domain-id", "path", "format", "text-unit", "metric", "source", "target-dataset", "target-split"])
def test_config_refuses_a_name_that_is_not_a_string_or_a_number(tmp_path, keys, field, value):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key(*keys, value=value))
    message = f"config error: {field} must be a string or a number\n"
    assert run_cli(["ingest", "--config", str(config)]) == (1, "", message)


@pytest.mark.parametrize("value", [True, ["near"], {"name": "near"}], ids=["bool", "list", "object"])
def test_config_refuses_a_group_label_that_is_not_a_string_or_a_number(tmp_path, value):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("transport", "targets", 0, "group", value=value))
    message = "config error: transport.targets[0].group must be a string or a number\n"
    assert run_cli(["ingest", "--config", str(config)]) == (1, "", message)


@pytest.mark.parametrize("value", [False, ["news"], {"name": "news"}], ids=["bool", "list", "object"])
@pytest.mark.parametrize("key", ["dataset", "split"])
def test_config_refuses_a_corpus_join_key_that_is_not_a_string_a_number_or_null(tmp_path, key, value):
    config = write_pipeline_tree(tmp_path)
    edit_config(config, set_key("corpora", 1, key, value=value))
    message = f"config error: corpora[1]: {key} must be a string or a number\n"
    assert run_cli(["ingest", "--config", str(config)]) == (1, "", message)
    edit_config(config, set_key("corpora", 1, key, value=None))  # null: no join key, as when the key is absent
    assert getattr(cli.load_config(config).corpora[1], key) is None


def test_the_readme_example_config_loads(tmp_path):
    raw = json.loads(README_CONFIGURATION.split("```json\n", 1)[1].split("```", 1)[0])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    cfg = cli.load_config(path)
    assert set(raw) == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"config_dir"}
    assert [c.domain_id for c in cfg.corpora] == ["src", "web"]
    assert cfg.transport.groups == {"web": (("web", "test"),)}
    assert cfg.fit.predictors == ("lexical", "cosine", "kl")


@pytest.mark.parametrize("block, record", [
    ("tokenizer", TokenizerConfig), ("embedding", EmbeddingConfig), ("kl", KLSettings), ("corpora", cli.CorpusSpec),
    ("scores", cli.ScoresSpec), ("transport", cli.TransportSpec), ("similarity", cli.SimilaritySpec),
])
def test_the_readme_key_table_lists_each_record_field(block, record):
    rows = dict(re.findall(r"^\| `([\w.\[\]]+)` \| (.*) \|$", README_CONFIGURATION, re.MULTILINE))
    keys = [f for f in dataclasses.fields(record) if not f.metadata.get("derived")]
    required = {f.name for f in keys if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    assert set(re.findall(r"`(\w+)`", rows[block])) == {f.name for f in keys}
    assert set(re.findall(r"\*\*`(\w+)`\*\*", rows[block])) == required


def reference_load_config(path):
    """The loader before config blocks were records: hand-written checks for each block.

    Returns what it resolved in ``dataclasses.asdict`` form, without
    ``config_dir``. Some malformed shapes make it raise ``TypeError``.
    """
    def require(condition, message):
        if not condition:
            raise ConfigError(message)

    def key_pair(obj, context):
        if isinstance(obj, dict):
            require("dataset" in obj and "split" in obj, f"{context} needs 'dataset' and 'split'")
            return str(obj["dataset"]), str(obj["split"])
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return str(obj[0]), str(obj[1])
        raise ConfigError(f"{context} must be a dataset/split pair")

    p = Path(path)
    try:
        raw = json.loads(read_text(p, "config")[0])
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    require(isinstance(raw, dict), "config must be a JSON object")
    top_level = {"out_dir", "tokenizer", "embedding", "kl", "corpora", "external_embeddings", "scores",
                 "transport", "similarity", "fit"}
    unknown = set(raw) - top_level
    require(not unknown, f"unknown config keys: {sorted(unknown)}")

    tokenizer = fields_from_dict(TokenizerConfig, raw.get("tokenizer", {}), "tokenizer")
    embedding = fields_from_dict(EmbeddingConfig, raw.get("embedding", {}), "embedding")
    kl = fields_from_dict(KLSettings, raw.get("kl", {}), "KL")

    corpora = []
    seen_ids = set()
    for i, item in enumerate(raw.get("corpora", [])):
        require(isinstance(item, dict), f"corpora[{i}] must be an object")
        require("domain_id" in item and "path" in item and "format" in item,
                f"corpora[{i}] needs domain_id, path and format")
        fmt = str(item["format"])
        require(fmt in cli.CORPUS_FORMATS, f"corpora[{i}]: unknown format {fmt!r}")
        domain_id = str(item["domain_id"])
        require(domain_id not in seen_ids, f"duplicate domain_id {domain_id!r}")
        seen_ids.add(domain_id)
        fields = item.get("fields")
        if fields is not None:
            require(isinstance(fields, list) and all(isinstance(f, str) for f in fields),
                    f"corpora[{i}]: fields must be a list of strings")
            fields = tuple(fields)
        unknown_c = set(item) - {"domain_id", "path", "format", "fields", "text_unit", "dataset", "split"}
        require(not unknown_c, f"corpora[{i}]: unknown keys {sorted(unknown_c)}")
        corpora.append({"domain_id": domain_id, "path": str(item["path"]), "format": fmt, "fields": fields,
                        "text_unit": str(item.get("text_unit", "line")),
                        **{key: None if item.get(key) is None else str(item[key]) for key in ("dataset", "split")}})
    by_slug = {}
    for c in corpora:
        other = by_slug.setdefault(cli._slug(c["domain_id"]), c["domain_id"])
        require(other == c["domain_id"], "domain ids map to the same file name")

    scores = raw.get("scores") or {}
    require(isinstance(scores, dict), "scores must be an object")

    transport = None
    if raw.get("transport") is not None:
        t = raw["transport"]
        require(isinstance(t, dict), "transport must be an object")
        require("task" in t and "source" in t and "targets" in t, "transport needs 'task', 'source' and 'targets'")
        unknown_t = set(t) - {"task", "source", "targets", "systems", "bias_corrected"}
        require(not unknown_t, f"transport: unknown keys {sorted(unknown_t)}")
        targets = []
        groups = {}
        for j, tgt in enumerate(t["targets"]):
            key = key_pair(tgt, f"transport.targets[{j}]")
            group = tgt.get("group") if isinstance(tgt, dict) else None
            targets.append(key)
            if group is not None:
                groups.setdefault(str(group), []).append(key)
        require(len(targets) > 0, "transport.targets must be non-empty")
        systems = t.get("systems")
        if systems is not None:
            require(isinstance(systems, list) and all(isinstance(s, str) for s in systems),
                    "transport.systems must be a list of strings")
            systems = tuple(systems)
        transport = {"task": str(t["task"]), "source": key_pair(t["source"], "transport.source"),
                     "targets": tuple(targets), "systems": systems, "groups": {k: tuple(v) for k, v in groups.items()},
                     "bias_corrected": bool(t.get("bias_corrected", False))}

    similarity = raw.get("similarity") or {}
    require(isinstance(similarity, dict), "similarity must be an object")
    sim_targets = similarity.get("targets")
    if sim_targets is not None:
        require(isinstance(sim_targets, list) and all(isinstance(s, str) for s in sim_targets),
                "similarity.targets must be a list of domain ids")
        sim_targets = tuple(sim_targets)

    fit_block = raw.get("fit") or {}
    require(isinstance(fit_block, dict), "fit must be an object")
    predictors = fit_block.get("predictors", ["lexical", "cosine", "kl"])
    require(isinstance(predictors, list) and predictors, "fit.predictors must be a non-empty list")
    for pred in predictors:
        require(pred in cli.PREDICTOR_COLUMNS, f"unknown predictor {pred!r}")

    return {
        "out_dir": str(raw.get("out_dir", "out")),
        "tokenizer": dataclasses.asdict(tokenizer),
        "embedding": dataclasses.asdict(embedding),
        "kl": dataclasses.asdict(kl),
        "corpora": tuple(corpora),
        "external_embeddings": raw.get("external_embeddings"),
        "scores": {"path": scores.get("path"), "metric": str(scores.get("metric", "F1"))},
        "transport": transport,
        "similarity": {"source": similarity.get("source"), "targets": sim_targets},
        "fit": {"predictors": tuple(predictors)},
    }


# shapes the reference accepted (often by ignoring them or by coercing a scalar) and load_config now refuses, on purpose
NEWLY_REJECTED = re.compile(
    r"unknown (scores|similarity|fit|transport\.targets\[\d+\]|transport\.source) fields: "
    r"|(scores|similarity|fit) must be an object$|corpora must be a list$"
    r"|duplicate (predictor|system|transport target|similarity target) "
    r"|out_dir must be a path$|(scores\.path|external_embeddings) must be a path or null$"
    r"|transport\.task must be a string$|transport\.bias_corrected must be true or false$"
    r"|(corpora\[\d+\]: )?[\w.\[\]]+ must be a string or a number$"
)

def _mostly(valid, malformed=()):
    """Values of one config field: each valid one weighs four times as much as each malformed one."""
    return st.sampled_from([*valid * 4, *malformed])


def _mostly_from(valid, malformed):
    """Draws from strategy ``valid`` four times as often as from strategy ``malformed``."""
    return st.one_of(*[valid] * 4, malformed)


def _with_stray_key(objects):
    """Objects from strategy ``objects``, one in five with an extra key that no config block has."""
    return st.tuples(objects, _mostly([False], [True])).map(lambda t: {**t[0], "stray": 1} if t[1] else t[0])


CORPUS = {"domain_id": "src", "path": "c.txt", "format": "text"}
_corpus_items = _mostly_from(
    _with_stray_key(st.fixed_dictionaries(
        {"domain_id": _mostly(["src", "news", "a b"], [7]), "path": st.just("c.txt"),
         "format": _mostly(["text", "conll", "jsonl", "interchange"], ["xml"])},
        optional={"fields": _mostly([None, ["premise"]], [[1], "premise"]), "text_unit": _mostly(["line"], [None]),
                  "dataset": _mostly(["d", None], [3]), "split": _mostly(["x"])},
    )),
    st.sampled_from([5, [], {"domain_id": "x", "format": "text"}]),
)
_target_items = _mostly([["a", "b"], {"dataset": "a", "split": "b"}, {"dataset": "c", "split": "d", "group": "g"},
                         {"dataset": "e", "split": "f", "group": 2}],
                        [["c", "d", "e"], {"dataset": "e", "split": "f", "grp": "g"}, {"dataset": "e"}, "ab", 5])
_transport = _with_stray_key(st.fixed_dictionaries(
    {"task": _mostly(["ner"], [5]),
     "targets": _mostly_from(st.lists(_target_items, min_size=1, max_size=3), st.sampled_from([[], 5, {}, {"a": "b"}])),
     "source": _mostly([["s", "x"], {"dataset": "s", "split": "x"}],
                       [{"dataset": "s"}, {"dataset": "s", "split": "x", "group": "g"}, "sx"])},
    optional={"systems": _mostly([None, ["sys-a"]], [[1], "sys-a", ["sys-a", "sys-a"]]),
              "bias_corrected": _mostly([True, False], ["no"])},
))
_configs = _with_stray_key(st.fixed_dictionaries({}, optional={
    "out_dir": _mostly(["results"], [5, None]),
    "tokenizer": _mostly([{}, {"ngram_order": 2, "lowercase": False}], [{"ngram_order": 0}, {"mystery": 1}, [], None]),
    "embedding": _mostly([{}, {"dimension": 8, "seed": 3}, {"weighting": "tfidf"}],
                         [{"dimension": 1}, {"x": 1}, {"seed": "x"}]),
    "kl": _mostly([{}, {"direction": "reverse", "epsilon": 1e-6}], [{"epsilon": 0}, {"epsilon": "x"}, {"mode": "x"}]),
    "corpora": _mostly_from(
        st.lists(_corpus_items, max_size=3, unique_by=lambda c: str(c.get("domain_id")) if isinstance(c, dict) else 0),
        st.sampled_from([5, {}, "", None, {"a": 1}, [dict(CORPUS, domain_id="a b"), dict(CORPUS, domain_id="a-b")],
                         [CORPUS, CORPUS]]),
    ),
    "external_embeddings": _mostly([None, "vectors.json"], [5]),
    "scores": _mostly([{}, {"path": "s.csv", "metric": "accuracy"}, {"metric": 5}],
                      [{"metrc": "F1"}, None, [], "s", {"path": 5}]),
    "transport": _mostly_from(_transport, st.sampled_from([None, [], False, "t", {}])),
    "similarity": _mostly([{}, {"source": "src"}, {"targets": ["news"]}, {"targets": None}],
                          [{"targets": "news"}, {"target": ["x"]}, None, []]),
    "fit": _mostly([{}, {"predictors": ["kl"]}, {"predictors": ["cosine", "lexical"]}],
                   [{"predictors": ["kl", "lexical", "kl"]}, {"predictors": []}, {"predictors": ["levenshtein"]},
                    {"predictors": [["kl"]]}, {"predictor": ["kl"]}, [], None]),
}))


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_configs)
@example({})
@example({"fit": {"predictor": ["kl"]}})
@example({"fit": {"predictors": ["kl", "kl"]}})
@example({"fit": [], "similarity": None})
@example({"corpora": 5})
@example({"tokenizer": []})
@example({"kl": {"epsilon": "x"}})
@example({"transport": {"task": "t", "source": ["s", "x"], "targets": 5}})
@example({"transport": {"task": "t", "source": ["s", "x"], "targets": [["a", "b"], {"dataset": "a", "split": "b"}]}})
@example({"similarity": {"targets": ["news", "news"]}})
@example({"transport": None, "corpora": [dict(CORPUS, domain_id="a b"), dict(CORPUS, domain_id="a-b")]})
@example({"corpora": [CORPUS, dict(CORPUS, domain_id="news", fields=["premise"], dataset=3, text_unit=None)]})
@example({"out_dir": 5, "scores": {"path": "s.csv", "metric": 5}, "transport": {
    "task": 5, "source": {"dataset": "s", "split": "x"}, "bias_corrected": "no", "systems": ["sys-a"],
    "targets": [{"dataset": "a", "split": "b", "group": 2}, ["c", "d"], {"dataset": "e", "split": "f", "group": "g"}]}})
def test_the_loader_matches_the_hand_written_reference(config_file, raw):
    config_file.write_text(json.dumps(raw), encoding="utf-8")
    try:
        expected = reference_load_config(config_file)
    except (ConfigError, TypeError):  # refused, or a crash that load_config turns into a refusal
        with pytest.raises(ConfigError):
            cli.load_config(config_file)
        return
    try:
        cfg = cli.load_config(config_file)
    except ConfigError as exc:
        assert NEWLY_REJECTED.match(str(exc)), str(exc)
        return
    resolved = dataclasses.asdict(cfg)
    assert resolved.pop("config_dir") == config_file.parent.resolve()
    assert resolved == expected
    if expected["external_embeddings"]:
        expected["embedding"] = None  # external vectors stand in for the projection
    hashes = cli._Hashes(cfg)
    assert {block: hashes.block(block) for block in expected if block != "out_dir"} == {
        block: stable_hash(value) for block, value in expected.items() if block != "out_dir"}


# ---------------------------------------------------------------- overrides


def test_seed_override_changes_the_embedding(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["ingest", "--config", str(config), "--out", "out7", "--seed", "7"])[0] == 0
    default = read_json(tmp_path / "out" / "cache" / "profile-src.json")["profile"]
    reseeded = read_json(tmp_path / "out7" / "cache" / "profile-src.json")["profile"]
    assert default["embedding"] != reseeded["embedding"]
    assert (default["terms"], default["counts"]) == (reseeded["terms"], reseeded["counts"])  # counts ignore the seed


def test_bias_correction_override_scales_variation(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["transport", "--config", str(config)])[0] == 0
    plain = read_json(tmp_path / "out" / "transport.json")["reports"]
    assert run_cli(["transport", "--config", str(config), "--bias-corrected"])[0] == 0
    corrected = read_json(tmp_path / "out" / "transport.json")["reports"]

    factor = 1.0 + 1.0 / (4 * 3)  # three targets
    for before, after in zip(plain, corrected):
        assert before["bias_corrected"] is False
        assert after["bias_corrected"] is True
        assert after["variation"] == pytest.approx(before["variation"] * factor, rel=1e-12)
        assert after["tau_p"] == before["tau_p"]  # correction touches only the spread


def test_kl_direction_override_changes_only_kl(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["similarity", "--config", str(config)])[0] == 0
    forward = read_json(tmp_path / "out" / "similarity.json")
    assert run_cli(["similarity", "--config", str(config), "--kl-direction", "reverse"])[0] == 0
    reverse = read_json(tmp_path / "out" / "similarity.json")

    assert forward["config_hash"] != reverse["config_hash"]
    changed = False
    for f, r in zip(forward["records"], reverse["records"]):
        assert f["cosine_distance"] == r["cosine_distance"]
        assert f["lexical_difference"] == r["lexical_difference"]
        changed = changed or f["kl_divergence"] != r["kl_divergence"]
    assert changed


def test_similarity_source_and_target_overrides(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    code, _, _ = run_cli([
        "similarity", "--config", str(config),
        "--source", "news", "--targets", "src,social",
    ])
    assert code == 0
    records = read_json(tmp_path / "out" / "similarity.json")["records"]
    assert [r["source_id"] for r in records] == ["news", "news"]
    assert [r["target_id"] for r in records] == ["src", "social"]

    code, _, err = run_cli(["similarity", "--config", str(config), "--source", "mystery"])
    assert code == 1
    assert "unknown domain 'mystery'" in err


def test_a_repeated_similarity_target_flag_is_refused(tmp_path):
    # a repeated target would be written, and fitted, as two points
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    code, out, err = run_cli(["similarity", "--config", str(config), "--targets", "news,news,social,science"])
    assert (code, out, err) == (1, "", "config error: duplicate similarity target 'news'\n")
    assert not (tmp_path / "out" / "similarity.json").exists()


def test_out_dir_is_not_part_of_the_config_hash(tmp_path):
    config = write_pipeline_tree(tmp_path)
    for out_dir in ("out-a", "out-b"):
        assert run_cli(["ingest", "--config", str(config), "--out", out_dir])[0] == 0
        assert run_cli(["similarity", "--config", str(config), "--out", out_dir])[0] == 0
    a = read_json(tmp_path / "out-a" / "similarity.json")
    b = read_json(tmp_path / "out-b" / "similarity.json")
    assert a["config_hash"] == b["config_hash"]
    assert a["records"] == b["records"]


# ---------------------------------------------------------------- plumbing


def test_help_and_version():
    code, out, err = run_cli(["--help"])
    assert (code, err) == (0, "")
    for stage in ("ingest", "similarity", "transport", "fit", "predict", "report"):
        assert stage in out
    assert run_cli(["--version"]) == (0, f"domainport {domainport.__version__}\n", "")


@pytest.mark.parametrize("stage, options", [
    ("ingest", ["--config", "--out", "--seed"]),
    ("similarity", ["--config", "--out", "--source", "--targets", "--kl-direction", "--kl-epsilon"]),
    ("transport", ["--config", "--out", "--bias-corrected", "--no-bias-corrected"]),
    ("fit", ["--config", "--out", "--predictor"]),
    ("predict", ["--model", "--x"]),
    ("report", ["--config", "--out", "--allow-partial"]),
])
def test_each_stage_help_names_its_options(stage, options):
    code, out, err = run_cli([stage, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: domainport {stage} ")
    for option in options:
        assert option in out


@pytest.mark.parametrize("argv", [
    [],
    ["transport"],
    ["no-such-stage", "--config", "x"],
    ["similarity", "--config", "x", "--kl-direction", "sideways"],
    ["fit", "--config", "x", "--predictor", "nope"],
    ["predict", "--model", "fit.json", "--x", "abc"],
    ["ingest", "--config", "x", "--bogus"],
    ["ingest", "--conf", "x"],
    ["similarity", "--config", "x", "--targets", " , "],
    ["-h"],
], ids=["no-command", "no-config", "unknown-stage", "kl-direction-choice", "predictor-choice", "x-not-a-float",
        "unknown-option", "abbreviated-option", "empty-targets", "short-help"])
def test_a_bad_command_line_is_a_one_line_usage_error(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err

"""End-to-end CLI tests: staging, caching, overrides, and exit codes."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import run_cli, run_full_pipeline, write_pipeline_tree
from domainport.hashing import content_digest
from domainport.regression import FitModel, predict


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def edit_config(config_path, mutate):
    raw = read_json(config_path)
    mutate(raw)
    config_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_writes_consistent_artifacts(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    out = tmp_path / "out"

    for name in (
        "cache/manifest.json",
        "cache/corpus-src.json",
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

    # every JSON artifact carries the same configuration hash
    hashes = {
        read_json(out / name)["config_hash"]
        for name in ("cache/manifest.json", "similarity.json", "transport.json",
                     "fit_summary.json", "report.json")
    }
    assert len(hashes) == 1
    meta = next(iter(hashes))
    assert f"#config_hash={meta}" in (out / "similarity.csv").read_text(encoding="utf-8")

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
        for p in (cache / "manifest.json", cache / "profile-src.json", cache / "corpus-news.json")
    }
    code, out2, _ = run_cli(["ingest", "--config", str(config)])
    assert code == 0
    assert out2.count("cache hit:") == 4
    after = {p: (cache / p).stat().st_mtime_ns for p in before}
    assert after == before  # nothing rewritten on a clean hit


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


def test_manifest_input_hash_is_sixteen_lowercase_hex_digits(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    domains = read_json(tmp_path / "out" / "cache" / "manifest.json")["domains"]
    assert len(domains) == 4
    for entry in domains.values():
        assert re.fullmatch(r"[0-9a-f]{16}", entry["input_hash"]), entry["input_hash"]
    src = (tmp_path / "corpora" / "src.txt").read_bytes()
    assert domains["src"]["input_hash"] == content_digest(src)


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
    manifest = read_json(cache / "manifest.json")
    assert set(manifest["domains"]) == {"src", "news", "social", "science"}


def test_ingest_missing_corpus_file_is_a_config_error(tmp_path):
    config = write_pipeline_tree(tmp_path)
    (tmp_path / "corpora" / "news.txt").unlink()
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "corpus file not found" in err


def test_lock_file_blocks_concurrent_runs(tmp_path):
    config = write_pipeline_tree(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("12345\n", encoding="ascii")
    code, _, err = run_cli(["ingest", "--config", str(config)])
    assert code == 1
    assert "locked by another run" in err
    (out / ".lock").unlink()
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert not (out / ".lock").exists()


def test_stages_demand_their_prerequisites(tmp_path):
    config = write_pipeline_tree(tmp_path)
    code, _, err = run_cli(["similarity", "--config", str(config)])
    assert code == 1
    assert "run the ingest stage first" in err

    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    code, _, err = run_cli(["fit", "--config", str(config)])
    assert code == 1
    assert "missing similarity.json; run the similarity stage first" in err


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


# ---------------------------------------------------------------- predict


def test_predict_agrees_with_the_library(tmp_path):
    config = write_pipeline_tree(tmp_path)
    run_full_pipeline(config)
    model_path = tmp_path / "out" / "fit-alpha-sys-kl.json"
    code, out, _ = run_cli(["predict", "--model", str(model_path), "--x", "0.5"])
    assert code == 0
    model = FitModel.from_dict(read_json(model_path)["model"])
    assert float(out.strip()) == predict(model, 0.5)


def test_predict_rejects_bad_model_files(tmp_path):
    missing = tmp_path / "fit-none.json"
    code, _, err = run_cli(["predict", "--model", str(missing), "--x", "0.5"])
    assert code == 1
    assert "run the fit stage first" in err

    corrupt = tmp_path / "fit-corrupt.json"
    corrupt.write_text('{"model": {"a": 1.0}}', encoding="utf-8")
    code, _, err = run_cli(["predict", "--model", str(corrupt), "--x", "0.5"])
    assert code == 2
    assert "corrupt model file" in err


# ---------------------------------------------------------------- report


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


# ---------------------------------------------------------------- overrides


def test_seed_override_changes_the_embedding(tmp_path):
    config = write_pipeline_tree(tmp_path)
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert run_cli(["ingest", "--config", str(config), "--out", "out7", "--seed", "7"])[0] == 0
    default = read_json(tmp_path / "out" / "cache" / "profile-src.json")["profile"]
    reseeded = read_json(tmp_path / "out7" / "cache" / "profile-src.json")["profile"]
    assert default["embedding"] != reseeded["embedding"]
    assert default["term_freq"] == reseeded["term_freq"]  # counts ignore the seed


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


def test_help_version_and_usage_errors():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    for stage in ("ingest", "similarity", "transport", "fit", "predict", "report"):
        assert stage in out

    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert "domainport" in out

    code, _, err = run_cli(["transport"])  # --config is required
    assert code == 1
    assert "usage error" in err

    code, _, err = run_cli(["no-such-stage", "--config", "x"])
    assert code == 1

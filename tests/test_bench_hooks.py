"""The benchmark's tracer wraps names in ``src/``; a refactor that drops one breaks ``--trace 1``.

These tests import ``bench/tracing.py`` and change nothing under ``bench/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    yield tracing
    assert not tracing.is_instrumented()
    sys.modules.pop("tracing", None)


def test_every_wrapped_name_is_defined_on_its_owner(tracing):
    for owner, attr, _, _ in tracing._patches():
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_score_table_counters_work_on_a_loaded_table(tracing):
    from domainport import cli

    text = "#config_hash=abc\nsystem,task,dataset,split,score\ns,t,a,x,50\ns,t,b,x,60\nr,t,a,x,70\n"
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        table = cli.load_score_table(text)
        assert table.get("r", "t", "a", "x") == 70.0
        assert table.get("s", "t", "b", "x") == 60.0
    counts = tracer.counts[""]
    assert counts["transport.table_rows"] == 3
    assert counts["transport.lookups"] == 2
    assert [span[0] for span in tracer.spans] == ["transport.load_table", "transport.lookup", "transport.lookup"]


def test_the_stage_table_names_the_traced_stages(tracing):
    from domainport import cli

    assert tuple(cli.STAGES) == tracing.STAGES


def test_a_traced_run_records_a_span_for_each_stage_cold_and_warm(tracing, tmp_path):
    from conftest import run_full_pipeline, write_pipeline_tree

    config = write_pipeline_tree(tmp_path)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        run_full_pipeline(config)  # cold: every stage does its work
        run_full_pipeline(config)  # warm: every stage is a cache hit
    spans = [span[0] for span in tracer.spans]
    assert {stage: spans.count(f"cli.{stage}") for stage in tracing.STAGES} == dict.fromkeys(tracing.STAGES, 2)


def test_the_distinct_feature_count_is_the_number_of_profile_terms(tracing, tmp_path):
    # the tracer counts len(profile.term_freq): the derived view must hold one entry per term
    from conftest import run_cli, write_pipeline_tree

    config = write_pipeline_tree(tmp_path)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert run_cli(["ingest", "--config", str(config)])[0] == 0
    profiles = sorted((tmp_path / "out" / "cache").glob("profile-*.json"))
    terms = [json.loads(path.read_text(encoding="utf-8"))["profile"]["terms"] for path in profiles]
    assert len(terms) == 4
    assert tracer.counts[""]["features.distinct_features"] == sum(map(len, terms)) > 0


def test_the_corpus_counts_are_the_parsed_documents_and_tokens(tracing, tmp_path):
    from conftest import run_cli, write_pipeline_tree
    from domainport.corpus import parse_plaintext

    config = write_pipeline_tree(tmp_path)
    paths = sorted((tmp_path / "corpora").glob("*.txt"))
    documents = [doc for path in paths for doc in parse_plaintext(path.read_bytes()).documents]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert run_cli(["ingest", "--config", str(config)])[0] == 0
    assert len(paths) == 4
    assert tracer.counts[""]["corpus.documents"] == len(documents) == 12
    assert tracer.counts[""]["corpus.tokens"] == sum(map(len, documents)) == 72


def test_a_tfidf_similarity_records_two_embed_calls_per_target(tracing, tmp_path):
    # tfidf re-embeds both profiles of each pair inside similarity; the tracer counts those calls
    from conftest import run_cli, write_pipeline_tree

    config = write_pipeline_tree(tmp_path)
    settings = json.loads(config.read_text(encoding="utf-8"))
    settings["embedding"]["weighting"] = "tfidf"
    config.write_text(json.dumps(settings), encoding="utf-8")
    assert run_cli(["ingest", "--config", str(config)])[0] == 0
    targets = len(settings["corpora"])  # no similarity targets given: every corpus, the source included
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert run_cli(["similarity", "--config", str(config)])[0] == 0
    embeds = [span for span in tracer.spans if span[0] == "features.embed"]
    assert tracer.counts[""]["features.embed_calls"] == len(embeds) == 2 * targets

    def outermost(span):
        while span[3] is not None:
            span = tracer.spans[span[3]]
        return span[0]

    assert {outermost(span) for span in embeds} == {"cli.similarity"}

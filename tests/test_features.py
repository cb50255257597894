"""Profile construction and deterministic embedding tests."""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domainport import features
from domainport.corpus import Document, TokenizerConfig, parse_plaintext
from domainport.errors import ComputationError, ConfigError, ParseError
from domainport.features import (
    DomainProfile,
    EmbeddingConfig,
    HashedTable,
    build_profile,
    build_profile_external,
    embed_builtin,
    load_external_embeddings,
    ngram_features,
    profile_from_dict,
    profile_to_dict,
    profile_to_json,
)
from domainport.hashing import fnv1a_64

freq_tables = st.dictionaries(
    st.text(alphabet="abcdefgh ", min_size=1, max_size=8).filter(str.strip),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=20,
)


def small_corpus(text="a b a\nc d\n", **cfg_kwargs):
    return parse_plaintext(text, TokenizerConfig(**cfg_kwargs), domain_id="d")


def reference_embed(term_freq, cfg, idf_context=None):
    """The per-feature loop that embed_builtin must match bit for bit."""
    if not term_freq:
        raise ComputationError("no features: empty frequency table")
    vec = np.zeros(cfg.dimension, dtype=np.float64)
    any_weight = False
    for feature in sorted(term_freq):
        weight = float(term_freq[feature])
        if weight < 0:
            raise ComputationError(f"negative count for feature {feature!r}")
        if weight == 0.0:
            continue
        if cfg.weighting == "tfidf" and idf_context is not None:
            df = 2 if feature in idf_context else 1
            weight *= math.log(2.0 / df) + 1.0
        any_weight = True
        h = fnv1a_64(feature.encode("utf-8"), seed=cfg.seed)
        vec[h % cfg.dimension] += (-1.0 if (h >> 63) & 1 else 1.0) * weight
    if not any_weight:
        raise ComputationError("degenerate embedding: all feature weights are zero")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise ComputationError("degenerate embedding: projection collapsed to the zero vector")
    return vec / norm


def reference_per_document(corpus, cfg):
    """The per-document loop that build_profile must match bit for bit."""
    acc = np.zeros(cfg.dimension, dtype=np.float64)
    contributing = 0
    for doc in corpus.documents:
        doc_counts = Counter(ngram_features(doc.tokens, corpus.tokenizer_config.ngram_order))
        if doc_counts:
            acc += reference_embed(doc_counts, cfg)
            contributing += 1
    acc /= contributing
    return acc / float(np.linalg.norm(acc))


def outcome(fn, *args, **kwargs):
    """A function's result, or the message of the ComputationError it raised."""
    try:
        return fn(*args, **kwargs)
    except ComputationError as exc:
        return str(exc)


def assert_same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------- embed_builtin


def test_single_feature_is_a_signed_basis_vector():
    vec = embed_builtin({"alpha": 7}, EmbeddingConfig(dimension=16, seed=42))
    nonzero = np.nonzero(vec)[0]
    assert list(nonzero) == [1]  # frozen slot for alpha at d=16, seed=42
    assert vec[1] == -1.0  # the weight's magnitude normalizes away, the sign stays
    assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-9)


# "ah" and "adehaddh" share slot 38 with opposite signs at d=64, seed=42,
# "c" and "ba" share slot 19 with opposite signs at d=32, seed=7: signed
# slots can cancel exactly, and the collapse must then be reproducible too
@given(freq_tables)
@example({"ah": 1, "adehaddh": 1})
@settings(max_examples=50)
def test_embedding_is_unit_norm_and_bitwise_deterministic(table):
    cfg = EmbeddingConfig(dimension=64, seed=42)
    try:
        v1 = embed_builtin(table, cfg)
    except ComputationError:
        with pytest.raises(ComputationError):
            embed_builtin(table, cfg)
        return
    v2 = embed_builtin(table, cfg)
    assert np.array_equal(v1, v2)
    assert math.isclose(float(np.linalg.norm(v1)), 1.0, abs_tol=1e-9)


@given(freq_tables)
@example({"c": 1, "ba": 1})
@settings(max_examples=50)
def test_embedding_ignores_map_insertion_order(table):
    cfg = EmbeddingConfig(dimension=32, seed=7)
    reversed_table = dict(reversed(list(table.items())))
    try:
        forward = embed_builtin(table, cfg)
    except ComputationError:
        with pytest.raises(ComputationError):
            embed_builtin(reversed_table, cfg)
        return
    assert np.array_equal(forward, embed_builtin(reversed_table, cfg))


@given(freq_tables, st.integers(min_value=2, max_value=9))
@settings(max_examples=50)
def test_scaling_all_counts_leaves_the_embedding_unchanged(table, k):
    cfg = EmbeddingConfig(dimension=32, seed=42)
    try:
        base = embed_builtin(table, cfg)
    except ComputationError:
        # signed slots can cancel exactly; scaling preserves the collapse
        with pytest.raises(ComputationError):
            embed_builtin({f: k * c for f, c in table.items()}, cfg)
        return
    scaled = embed_builtin({f: k * c for f, c in table.items()}, cfg)
    assert np.allclose(base, scaled, atol=1e-12)


SEEDS = (0, 42, -1, 2**64 - 1, 2**70 + 3)
MIXED_TABLE = {
    "alpha": 3,
    "beta": 0,  # zero counts are skipped
    "naïve": 2,
    "東京": 5,
    "emoji 🙂 bigram": 1,
    "x" * 40: 7,
    "a": 1,
    "caabae": 1,  # cancels "a" at d=32, seed=42
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dimension", [2, 32, 300])
@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
def test_embedding_is_bitwise_equal_to_the_per_feature_loop(seed, dimension, weighting):
    cfg = EmbeddingConfig(dimension=dimension, seed=seed, weighting=weighting)
    many = {f"w{i} {'é' * (i % 4)}": i % 9 for i in range(500)}
    context = {"alpha", "東京", "x" * 40, *(f"w{i} " for i in range(0, 500, 3))}
    for table in (MIXED_TABLE, many, {"a": 1, "caabae": 1}, {"solo": 4}, {"inf": math.inf, "b": 1}):
        for idf_context in (None, context, frozenset()):
            assert_same_outcome(
                outcome(embed_builtin, table, cfg, idf_context=idf_context),
                outcome(reference_embed, table, cfg, idf_context=idf_context),
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
def test_a_prepared_table_embeds_like_its_mapping(seed, weighting):
    # one table embedded against several contexts in turn, as similarity_table
    # does with its source: no context may leak into the next
    cfg = EmbeddingConfig(dimension=32, seed=seed, weighting=weighting)
    contexts = (None, {"alpha", "東京"}, frozenset(), set(MIXED_TABLE), {"x" * 40}, None)
    for table in (MIXED_TABLE, {"a": 1, "caabae": 1}, {"solo": 4}):
        prepared = HashedTable.of(table, cfg)
        for idf_context in contexts:
            assert_same_outcome(
                outcome(embed_builtin, prepared, cfg, idf_context=idf_context),
                outcome(reference_embed, table, cfg, idf_context=idf_context),
            )
    with pytest.raises(ComputationError, match="different embedding configuration"):
        embed_builtin(HashedTable.of(MIXED_TABLE, cfg), EmbeddingConfig(dimension=16, seed=seed))


@given(
    st.dictionaries(st.text(min_size=0, max_size=40), st.integers(min_value=0, max_value=2**40), max_size=60),
    st.sampled_from(SEEDS),
    st.integers(min_value=2, max_value=400),
    st.sampled_from(["tf", "tfidf"]),
)
@settings(max_examples=100, deadline=None)
def test_embedding_matches_the_per_feature_loop_on_any_table(table, seed, dimension, weighting):
    cfg = EmbeddingConfig(dimension=dimension, seed=seed, weighting=weighting)
    context = set(list(table)[::2])
    assert_same_outcome(
        outcome(embed_builtin, table, cfg, idf_context=context),
        outcome(reference_embed, table, cfg, idf_context=context),
    )


def test_embedding_of_a_one_megabyte_feature_matches_the_loop():
    table = {"m" * (1 << 20) + "é": 2, "short": 3, **{f"f{i}": 1 for i in range(40)}}
    cfg = EmbeddingConfig(dimension=300, seed=42)
    assert np.array_equal(embed_builtin(table, cfg), reference_embed(table, cfg))


def test_negative_count_names_the_first_negative_feature_in_sorted_order():
    table = {"zeta": -1, "beta": 2, "gamma": -3, "alpha": 0}
    with pytest.raises(ComputationError, match=r"negative count for feature 'gamma'$"):
        embed_builtin(table, EmbeddingConfig(dimension=16))
    with pytest.raises(ComputationError, match=r"negative count for feature 'gamma'$"):
        reference_embed(table, EmbeddingConfig(dimension=16))


def test_exactly_cancelling_features_are_rejected():
    # "a" and "caabae" share a slot with opposite signs at d=32, seed=42
    with pytest.raises(ComputationError, match="collapsed to the zero vector"):
        embed_builtin({"a": 1, "caabae": 1}, EmbeddingConfig(dimension=32, seed=42))


def test_different_seed_or_dimension_changes_the_projection():
    table = {"alpha": 3, "beta": 5, "gamma": 2}
    base = embed_builtin(table, EmbeddingConfig(dimension=64, seed=42))
    assert not np.array_equal(base, embed_builtin(table, EmbeddingConfig(dimension=64, seed=43)))
    assert embed_builtin(table, EmbeddingConfig(dimension=128, seed=42)).size == 128


def test_embed_rejects_degenerate_tables():
    cfg = EmbeddingConfig(dimension=16)
    with pytest.raises(ComputationError, match="no features"):
        embed_builtin({}, cfg)
    with pytest.raises(ComputationError, match="degenerate embedding"):
        embed_builtin({"a": 0}, cfg)
    with pytest.raises(ComputationError, match="negative count"):
        embed_builtin({"a": -1}, cfg)


def test_tfidf_weights_against_the_pair_context():
    # shared feature: df=2 so idf = ln(1)+1 = 1; unique feature: df=1 so idf = ln(2)+1
    cfg = EmbeddingConfig(dimension=32, seed=42, weighting="tfidf")
    vec = embed_builtin({"shared": 1, "unique": 1}, cfg, idf_context={"shared", "elsewhere"})
    expected = np.zeros(32)
    for feature, idf in (("shared", 1.0), ("unique", math.log(2.0) + 1.0)):
        h_cfg = EmbeddingConfig(dimension=32, seed=42)
        one_hot = embed_builtin({feature: 1}, h_cfg)  # signed unit basis vector
        expected += one_hot * idf
    expected /= np.linalg.norm(expected)
    assert np.allclose(vec, expected, atol=1e-12)


def test_tfidf_without_context_reduces_to_tf():
    cfg_tf = EmbeddingConfig(dimension=32, seed=42, weighting="tf")
    cfg_tfidf = EmbeddingConfig(dimension=32, seed=42, weighting="tfidf")
    table = {"a": 2, "b": 3}
    assert np.array_equal(embed_builtin(table, cfg_tf), embed_builtin(table, cfg_tfidf))


# ---------------------------------------------------------------- config


def test_embedding_config_validation():
    with pytest.raises(ConfigError):
        EmbeddingConfig(dimension=1)
    with pytest.raises(ConfigError):
        EmbeddingConfig(weighting="bm25")
    with pytest.raises(ConfigError):
        EmbeddingConfig(per_document=True, weighting="tfidf")
    with pytest.raises(ConfigError):
        EmbeddingConfig.from_dict({"dimension": 8, "extra": True})


def test_embedding_config_hash_tracks_options():
    hashes = {
        EmbeddingConfig().config_hash(),
        EmbeddingConfig(dimension=128).config_hash(),
        EmbeddingConfig(seed=1).config_hash(),
        EmbeddingConfig(weighting="tfidf").config_hash(),
        EmbeddingConfig(per_document=True).config_hash(),
    }
    assert len(hashes) == 5


# ---------------------------------------------------------------- ngrams


def test_ngram_features_orders():
    tokens = ["a", "b", "c"]
    assert ngram_features(tokens, 1) == ["a", "b", "c"]
    assert ngram_features(tokens, 2) == ["a b", "b c"]
    assert ngram_features(tokens, 3) == ["a b c"]
    assert ngram_features(["a"], 2) == []  # too short for the order


# ---------------------------------------------------------------- build_profile


def test_profile_counts_terms():
    corpus = parse_plaintext("a b a\n", domain_id="d")
    profile = build_profile(corpus, EmbeddingConfig(dimension=16))
    assert profile.term_freq == {"a": 2, "b": 1}
    assert profile.vocabulary == {"a", "b"}
    assert profile.vocabulary is profile.vocabulary  # built once per profile
    assert sum(profile.term_freq.values()) == corpus.token_count


def test_profile_bigram_counts():
    corpus = small_corpus("a b a\n", ngram_order=2)
    profile = build_profile(corpus, EmbeddingConfig(dimension=16))
    assert profile.term_freq == {"a b": 1, "b a": 1}


def test_identical_token_multisets_give_identical_profiles():
    cfg = EmbeddingConfig(dimension=32)
    p1 = build_profile(parse_plaintext("x y\nz\n", domain_id="one"), cfg)
    p2 = build_profile(parse_plaintext("x y\nz\n", domain_id="two"), cfg)
    assert p1.term_freq == p2.term_freq
    assert np.array_equal(p1.embedding, p2.embedding)
    assert p1.config_hash() == p2.config_hash()


def test_adding_a_document_never_shrinks_vocabulary():
    cfg = EmbeddingConfig(dimension=32)
    base = parse_plaintext("a b\nc\n", domain_id="d")
    grown = parse_plaintext("a b\nc\nd e\n", domain_id="d")
    assert build_profile(base, cfg).vocabulary <= build_profile(grown, cfg).vocabulary


def test_per_document_profile_is_unit_norm_and_differs_from_pooled():
    cfg_pool = EmbeddingConfig(dimension=64, seed=42)
    cfg_doc = EmbeddingConfig(dimension=64, seed=42, per_document=True)
    corpus = parse_plaintext("a a a b\nc d\n", domain_id="d")
    pooled = build_profile(corpus, cfg_pool)
    averaged = build_profile(corpus, cfg_doc)
    assert math.isclose(float(np.linalg.norm(averaged.embedding)), 1.0, abs_tol=1e-9)
    assert not np.array_equal(pooled.embedding, averaged.embedding)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "text, order",
    [
        ("a\nb\na\nnaïve\n東京\n", 1),  # one-token documents
        ("a b a c\nc d\n\nsolo\nb a b a\n", 1),
        ("a b a c\nc d e\nsolo\nb a b a\n", 2),  # "solo" yields no bigram
    ],
)
def test_per_document_profile_is_bitwise_equal_to_the_per_document_loop(seed, text, order, monkeypatch):
    cfg = EmbeddingConfig(dimension=32, seed=seed, per_document=True)
    corpus = small_corpus(text, ngram_order=order)
    tokenized = 0

    def counting_ngram_features(tokens, n):
        nonlocal tokenized
        tokenized += 1
        return ngram_features(tokens, n)

    monkeypatch.setattr(features, "ngram_features", counting_ngram_features)
    profile = build_profile(corpus, cfg)
    monkeypatch.undo()
    assert tokenized == len(corpus.documents)  # each document is tokenized into n-grams once
    assert np.array_equal(profile.embedding, reference_per_document(corpus, cfg))
    assert profile.term_freq == build_profile(corpus, EmbeddingConfig(dimension=32, seed=seed)).term_freq


def test_per_document_profile_rejects_a_document_that_cancels():
    # "a" and "caabae" cancel in their shared document even though the pooled
    # table does not collapse; the per-document path keeps that error
    corpus = small_corpus("a caabae\nother words\n")
    cfg = EmbeddingConfig(dimension=32, seed=42, per_document=True)
    with pytest.raises(ComputationError, match="collapsed to the zero vector"):
        build_profile(corpus, cfg)
    with pytest.raises(ComputationError, match="collapsed to the zero vector"):
        reference_per_document(corpus, cfg)


def test_profile_rejects_featureless_corpus():
    corpus = small_corpus("a b\n", ngram_order=5)  # every document shorter than the order
    with pytest.raises(ComputationError, match="no features"):
        build_profile(corpus, EmbeddingConfig(dimension=16))


def test_profile_embeds_bitwise_reproducibly():
    corpus = parse_plaintext("stable input text\nsecond line\n", domain_id="d")
    cfg = EmbeddingConfig(dimension=300, seed=42)
    assert np.array_equal(build_profile(corpus, cfg).embedding, build_profile(corpus, cfg).embedding)


# ---------------------------------------------------------------- external vectors


def test_external_embeddings_normalize_on_load():
    vectors = load_external_embeddings(b'{"d1": [3, 4], "d2": [0, 2]}')
    assert np.allclose(vectors["d1"], [0.6, 0.8])
    assert np.allclose(vectors["d2"], [0.0, 1.0])


def test_external_embeddings_csv_form():
    csv_text = "domain_id,v0,v1\nd1,3,4\nd2,1,0\n"
    vectors = load_external_embeddings(csv_text.encode("utf-8"))
    assert np.allclose(vectors["d1"], [0.6, 0.8])
    assert np.allclose(vectors["d2"], [1.0, 0.0])


def test_external_embeddings_error_cases():
    with pytest.raises(ParseError, match="missing domains.*d9"):
        load_external_embeddings(b'{"d1": [1, 0]}', expected_domains=["d1", "d9"])
    with pytest.raises(ParseError, match="ragged"):
        load_external_embeddings(b'{"d1": [1, 0], "d2": [1, 0, 0]}')
    with pytest.raises(ParseError, match="non-finite"):
        load_external_embeddings(b'{"d1": [1, Infinity]}')
    with pytest.raises(ParseError, match="zero vector"):
        load_external_embeddings(b'{"d1": [0, 0]}')
    with pytest.raises(ConfigError, match="not found"):
        load_external_embeddings("no/such/file.json")


def test_external_embeddings_from_file(tmp_path):
    p = tmp_path / "emb.json"
    p.write_text('{"d1": [3, 4]}', encoding="utf-8")
    vectors = load_external_embeddings(p, expected_domains=["d1"])
    assert np.allclose(vectors["d1"], [0.6, 0.8])


def test_external_embeddings_from_a_path_with_a_brace(tmp_path):
    p = tmp_path / "dir{x}" / "emb.json"
    p.parent.mkdir()
    p.write_text('{"d1": [3, 4]}', encoding="utf-8")
    assert np.allclose(load_external_embeddings(str(p), expected_domains=["d1"])["d1"], [0.6, 0.8])
    assert np.allclose(load_external_embeddings(p)["d1"], [0.6, 0.8])
    # a single-line string that names no file is still read as JSON text
    assert np.allclose(load_external_embeddings('{"d1": [3, 4]}')["d1"], [0.6, 0.8])


def test_build_profile_external():
    corpus = parse_plaintext("a b c\n", domain_id="d1")
    profile = build_profile_external(corpus, np.array([3.0, 4.0]), "emb.json")
    assert np.allclose(profile.embedding, [0.6, 0.8])
    assert profile.embedding_source.kind == "external"
    builtin = build_profile(corpus, EmbeddingConfig(dimension=2))
    assert profile.embedding_hash != builtin.embedding_hash


def test_build_profile_external_rejects_zero_vector():
    corpus = parse_plaintext("a b\n", domain_id="d1")
    with pytest.raises(ComputationError, match="degenerate"):
        build_profile_external(corpus, np.zeros(4), "emb.json")


# ---------------------------------------------------------------- serialization


def test_profile_round_trip():
    corpus = parse_plaintext("round trip text\nwith two lines\n", domain_id="rt")
    profile = build_profile(corpus, EmbeddingConfig(dimension=32, seed=9))
    restored = profile_from_dict(json.loads(profile_to_json(profile)))
    assert restored.domain_id == profile.domain_id
    assert restored.term_freq == profile.term_freq
    assert np.array_equal(restored.embedding, profile.embedding)
    assert restored.config_hash() == profile.config_hash()
    assert restored.embedding_config == profile.embedding_config


def test_profile_from_dict_reports_missing_keys():
    with pytest.raises(ParseError, match="missing key"):
        profile_from_dict({"domain_id": "x"})


def test_profiles_with_different_tokenizers_are_incomparable():
    cfg = EmbeddingConfig(dimension=16)
    p1 = build_profile(parse_plaintext("a b\n", TokenizerConfig(), domain_id="d"), cfg)
    p2 = build_profile(parse_plaintext("a b\n", TokenizerConfig(lowercase=False), domain_id="d"), cfg)
    assert p1.config_hash() != p2.config_hash()


def test_raw_document_type_constraints():
    doc = Document(tokens=("a", "b"), raw_length=3)
    assert doc.tokens == ("a", "b")
    # frozen dataclass: no mutation
    with pytest.raises(AttributeError):
        doc.tokens = ("c",)

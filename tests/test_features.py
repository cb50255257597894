"""Profile construction and deterministic embedding tests."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domainport import divergence, features
from domainport.corpus import Corpus, TokenizerConfig, parse_plaintext
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
)
from domainport.hashing import canonical_json, dump_json, fields_from_dict, fnv1a_64, fnv1a_64_many, slot_and_sign

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


def embed_in_pair(table, cfg, other=None):
    """``table`` embedded under the pairwise idf of vocabulary ``other``, through :meth:`HashedTable.idf_weighted`."""
    prepared = table if isinstance(table, HashedTable) else HashedTable.of(table, cfg)
    if cfg.weighting == "tfidf" and other is not None:
        prepared = prepared.idf_weighted(np.array([f in other for f in prepared.features], dtype=bool))
    return embed_builtin(prepared, cfg)


def reference_per_document(corpus, cfg):
    """The per-document loop that build_profile must match bit for bit."""
    acc = np.zeros(cfg.dimension, dtype=np.float64)
    contributing = 0
    for doc in corpus.documents:
        doc_counts = Counter(ngram_features(doc, corpus.tokenizer_config.ngram_order))
        if doc_counts:
            acc += reference_embed(doc_counts, cfg)
            contributing += 1
    acc /= contributing
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        raise ComputationError("degenerate embedding: per-document vectors cancelled out")
    return acc / norm


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
    larger = {f"w{i} {'é' * (i % 4)}" for i in range(0, 2000, 2)} | {"naïve", "unseen"}  # more than `many`
    for table in (MIXED_TABLE, many, {"a": 1, "caabae": 1}, {"solo": 4}, {"inf": math.inf, "b": 1}):
        for idf_context in (None, set(), context, larger):
            assert_same_outcome(
                outcome(embed_in_pair, table, cfg, idf_context),
                outcome(reference_embed, table, cfg, idf_context=idf_context),
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
def test_a_prepared_table_embeds_like_its_mapping(seed, weighting):
    # one table weighted against several contexts in turn, as similarity_table
    # does with its source: no context may leak into the next
    cfg = EmbeddingConfig(dimension=32, seed=seed, weighting=weighting)
    contexts = (None, {"alpha", "東京"}, set(), set(MIXED_TABLE), {"x" * 40}, {"naïve", "b"}, None)
    for table in (MIXED_TABLE, {"a": 1, "caabae": 1}, {"solo": 4}):
        prepared = HashedTable.of(table, cfg)
        for idf_context in contexts:
            assert_same_outcome(
                outcome(embed_in_pair, prepared, cfg, idf_context),
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
        outcome(embed_in_pair, table, cfg, context),
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
    vec = embed_in_pair({"shared": 1, "unique": 1}, cfg, {"shared", "elsewhere"})
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
        fields_from_dict(EmbeddingConfig, {"dimension": 8, "extra": True}, "embedding")


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
    assert build_profile(base, cfg).term_freq.keys() <= build_profile(grown, cfg).term_freq.keys()


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


def test_per_document_profile_rejects_documents_whose_mean_cancels():
    # "w0" and "w11" hash to slot 0 with opposite signs: each document has a
    # vector of its own, but their mean is the zero vector
    corpus = small_corpus("w0\nw11\n")
    with pytest.raises(ComputationError, match="per-document vectors cancelled out"):
        build_profile(corpus, EmbeddingConfig(dimension=2, seed=42, per_document=True))


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
        load_external_embeddings(Path("no/such/file.json"))
    # a str is content, never a file name
    with pytest.raises(ParseError, match="define no domains"):
        load_external_embeddings("no/such/file.json")


@pytest.mark.parametrize("content, message", [
    (b'{"d1": [1, 0', "invalid JSON: "),
    (b'{"d1": 5}', "vector for domain 'd1' is not a list of numbers"),
    (b'{"d1": [1, "x"]}', "vector for domain 'd1' is not a list of numbers"),
    (b'{"d1": [1, null]}', "vector for domain 'd1' is not a list of numbers"),
    (b'{"d1": [1, 1' + b"0" * 400 + b"]}", "non-finite component in vector for domain 'd1'"),
    (b"\n  \n", "external embeddings file is empty"),
    (b"domain_id,v0\nd1\n", "line 2: expected domain_id followed by vector components"),
    (b"domain_id,v0,v1\nd1,1,0\nd2,1,x\n", "line 3: non-numeric vector component"),
    (b'{"d1": [1, 0], "d2": [0, 1], "d1": [0, 1]}', "domain 'd1' given twice"),
    (b"domain_id,v0,v1\nd1,1,0\nd2,0,1\nd1,0,1\n", "line 4: domain 'd1' given twice"),
    (b"domain_id,v0,v1\n d1 ,1,0\nd1,0,1\n", "line 3: domain 'd1' given twice"),
    (b"\ndomain_id,v0\n\nd1,1\n\nd2\n", "line 6: expected domain_id followed by vector components"),
    # only the top-level object names domains: a nested one is a malformed vector, repeated keys or not
    (b'{"d1": {"x": 1, "x": 2}}', "vector for domain 'd1' is not a list of numbers"),
    (b'{"d1": {}}', "vector for domain 'd1' is not a list of numbers"),
], ids=["invalid-json", "vector-number", "component-string", "component-null", "component-overflow", "empty-csv",
        "short-row", "non-numeric-cell", "json-domain-twice", "csv-domain-twice", "csv-padded-domain-twice",
        "csv-blank-lines", "nested-repeated-keys", "nested-empty-object"])
def test_external_embeddings_refuse_malformed_content(content, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        load_external_embeddings(content)


def test_external_embeddings_from_file(tmp_path):
    p = tmp_path / "emb.json"
    p.write_text('{"d1": [3, 4]}', encoding="utf-8")
    vectors = load_external_embeddings(p, expected_domains=["d1"])
    assert np.allclose(vectors["d1"], [0.6, 0.8])


def test_external_embeddings_from_a_path_with_a_brace(tmp_path):
    p = tmp_path / "dir{x}" / "emb.json"
    p.parent.mkdir()
    p.write_text('{"d1": [3, 4]}', encoding="utf-8")
    assert np.allclose(load_external_embeddings(p, expected_domains=["d1"])["d1"], [0.6, 0.8])
    # a str is content, never a file name, even when such a file exists
    with pytest.raises(ParseError, match="define no domains"):
        load_external_embeddings(str(p))
    assert np.allclose(load_external_embeddings('{"d1": [3, 4]}')["d1"], [0.6, 0.8])


def test_build_profile_external():
    corpus = parse_plaintext("a b c\n", domain_id="d1")
    profile = build_profile_external(corpus, np.array([3.0, 4.0]), "emb.json")
    assert np.allclose(profile.embedding, [0.6, 0.8])
    assert profile.embedding_config is None
    builtin = build_profile(corpus, EmbeddingConfig(dimension=2))
    assert profile.embedding_hash != builtin.embedding_hash


def test_build_profile_external_rejects_zero_vector():
    corpus = parse_plaintext("a b\n", domain_id="d1")
    with pytest.raises(ComputationError, match="degenerate"):
        build_profile_external(corpus, np.zeros(4), "emb.json")


# ---------------------------------------------------------------- serialization


@pytest.mark.parametrize("encode", [canonical_json, dump_json], ids=["cache", "artifact"])
def test_profile_round_trip(encode):
    corpus = parse_plaintext("round trip text\nwith two lines\n", domain_id="rt")
    profile = build_profile(corpus, EmbeddingConfig(dimension=32, seed=9))
    restored = profile_from_dict(json.loads(encode(profile_to_dict(profile))))
    assert restored.domain_id == profile.domain_id
    assert restored.term_freq == profile.term_freq
    assert np.array_equal(restored.embedding, profile.embedding)
    assert restored.config_hash() == profile.config_hash()
    assert restored.embedding_config == profile.embedding_config


def test_profile_from_dict_reports_missing_keys():
    with pytest.raises(ParseError, match="missing key"):
        profile_from_dict({"domain_id": "x"})


@pytest.mark.parametrize("terms, counts, field", [
    (["w1"], ["x"], "counts"), (["w1"], [2.7], "counts"), (["w1"], [True], "counts"), (["w1"], [None], "counts"),
    (["w1"], [0], "counts"), (["w1"], [-1], "counts"), (["w1"], [2**63], "counts"), (["w1"], {"w1": 1}, "counts"),
    (["w1"], [1, 1], "counts"), (["a", "b"], [1], "counts"), ({"w1": 1}, [1], "terms"), ("w1", [1], "terms"),
    ([7], [1], "terms"), (["b", "a"], [1, 1], "terms"), (["a", "a"], [1, 1], "terms"), (["é", "z"], [1, 1], "terms"),
], ids=["string-count", "float-count", "bool-count", "null-count", "zero-count", "negative-count", "beyond-int64",
        "counts-object", "counts-longer", "counts-shorter", "terms-object", "terms-string", "number-term", "unsorted",
        "duplicate", "code-point-order"])
def test_profile_from_dict_refuses_malformed_columns(terms, counts, field):
    payload = profile_to_dict(build_profile(small_corpus(), EmbeddingConfig(dimension=8)))
    payload.update(terms=terms, counts=counts)
    with pytest.raises(ParseError, match=f"^profile {field} "):
        profile_from_dict(payload)


def test_profile_from_dict_takes_the_largest_int64_count_and_empty_columns():
    payload = profile_to_dict(build_profile(small_corpus(), EmbeddingConfig(dimension=8)))
    payload.update(terms=["a", "b"], counts=[2**63 - 1, 1])
    assert profile_from_dict(payload).term_freq == {"a": 2**63 - 1, "b": 1}
    payload.update(terms=[], counts=[])
    assert profile_from_dict(payload).term_freq == {}


@pytest.mark.parametrize("embedding", [{"0": 1.0}, [1.0, "x"], [1.0, math.nan], [math.inf, 0.0], [True, 0.5],
                                       [1.0, None], [[1.0, 0.0]], [10**400, 1.0], "1.0"],
                         ids=["object", "string", "nan", "inf", "bool", "null", "nested", "huge-int", "text"])
def test_profile_from_dict_refuses_a_malformed_embedding(embedding):
    payload = profile_to_dict(build_profile(small_corpus(), EmbeddingConfig(dimension=8)))
    payload["embedding"] = embedding
    with pytest.raises(ParseError, match="profile embedding must be a list of finite numbers"):
        profile_from_dict(payload)


def test_profile_from_dict_and_profile_to_dict_copy_the_columns():
    profile = build_profile(small_corpus(), EmbeddingConfig(dimension=8))
    payload = profile_to_dict(profile)
    assert (payload["terms"], payload["counts"]) == (profile.terms, profile.counts)
    assert payload["terms"] is not profile.terms and payload["counts"] is not profile.counts
    restored = profile_from_dict(payload)
    payload["terms"].append("zz")
    payload["counts"][0] = 99
    assert (restored.terms, restored.counts) == (profile.terms, profile.counts)


def test_the_term_freq_view_is_read_only_and_never_written():
    profile = build_profile(small_corpus(), EmbeddingConfig(dimension=8))
    assert dict(profile.term_freq) == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert list(profile.term_freq) == profile.terms and len(profile.term_freq) == len(profile.terms)
    with pytest.raises(TypeError):
        profile.term_freq["a"] = 5
    assert "term_freq" not in profile_to_dict(profile)


def test_profile_from_dict_reads_integer_embedding_components():
    payload = profile_to_dict(build_profile(small_corpus(), EmbeddingConfig(dimension=2)))
    payload["embedding"] = [0, 1]
    restored = profile_from_dict(payload)
    assert restored.embedding.dtype == np.float64 and restored.embedding.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("build", [
    lambda c: build_profile(c, EmbeddingConfig(dimension=8)),
    lambda c: build_profile(c, EmbeddingConfig(dimension=8, per_document=True)),
    lambda c: build_profile_external(c, np.array([3.0, 4.0]), "emb.json"),
], ids=["tf", "per-document", "external"])
@pytest.mark.parametrize("order", [1, 2])
def test_profiles_keep_their_term_table_in_sorted_order(build, order):
    corpus = small_corpus("zeta alpha beta alpha\nmu delta zeta\nbeta\n", ngram_order=order)
    profile = build(corpus)
    assert all(a < b for a, b in zip(profile.terms, profile.terms[1:]))  # strictly ascending: no duplicates
    expected = Counter(f for doc in corpus.documents for f in ngram_features(doc, order))
    assert dict(zip(profile.terms, profile.counts)) == expected
    assert all(type(c) is int for c in profile.counts)


def test_profiles_with_different_tokenizers_are_incomparable():
    cfg = EmbeddingConfig(dimension=16)
    p1 = build_profile(parse_plaintext("a b\n", TokenizerConfig(), domain_id="d"), cfg)
    p2 = build_profile(parse_plaintext("a b\n", TokenizerConfig(lowercase=False), domain_id="d"), cfg)
    assert p1.config_hash() != p2.config_hash()


# ---------------------------------------------------------------- columns against the dict pipeline


def dict_term_table(counts):
    """The term table as a dict in sorted feature order, as profiles kept it before they kept two columns."""
    features = sorted(counts)
    return dict(zip(features, map(counts.__getitem__, features)))


def dict_embed(term_freq, cfg, idf_context=None):
    """The dict pipeline's projection: sort the table again, drop zero weights, hash, weight and project."""
    features = sorted(term_freq)
    weights = np.fromiter(map(term_freq.__getitem__, features), dtype=np.float64, count=len(features))
    nonzero = weights != 0.0
    features = [f for f, keep in zip(features, nonzero) if keep]
    slots, signs = slot_and_sign(fnv1a_64_many([f.encode("utf-8") for f in features], seed=cfg.seed), cfg.dimension)
    weights = weights[nonzero]
    if cfg.weighting == "tfidf" and idf_context is not None:
        shared = np.fromiter(map(idf_context.__contains__, features), dtype=bool, count=len(features))
        weights = weights * np.where(shared, math.log(2.0 / 2) + 1.0, math.log(2.0 / 1) + 1.0)
    vec = np.bincount(slots.astype(np.intp), weights=signs * weights, minlength=cfg.dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ComputationError("degenerate embedding: projection collapsed to the zero vector")
    return vec / norm


def corpus_of(documents, order, domain_id="d"):
    return Corpus(domain_id, tuple(tuple(tokens) for tokens in documents if tokens), TokenizerConfig(ngram_order=order))


# ASCII, Latin-1, Greek, CJK and astral characters: code-point order differs from UTF-16 and locale orders
tokens = st.text(alphabet="abAB_1éÉßΩω東京\U0001f642\U00010400ａ", min_size=1, max_size=3)
documents = st.lists(st.lists(tokens, min_size=1, max_size=8), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(documents, documents, st.sampled_from([1, 2]), st.sampled_from(SEEDS), st.integers(min_value=2, max_value=64),
       st.sampled_from(["tf", "tfidf", "per_document"]))
@example([["b", "a", "b"]], [["東京", "a"]], 1, 42, 8, "tfidf")
@example([["é", "z", "\U0001f642", "ａ"]], [["z", "é"]], 2, 0, 16, "tf")
@example([["1"]], [["1", "1B"]], 1, 0, 2, "tf")  # "1B" cancels "1": the target's projection collapses
@example([["1"]], [["1", "bé"], ["\U00010400", "11"]], 1, 0, 3, "per_document")  # the target's documents cancel
def test_the_columnar_build_is_bitwise_equal_to_the_dict_pipeline(source_docs, target_docs, order, seed, dimension,
                                                                  mode):
    cfg = EmbeddingConfig(dimension=dimension, seed=seed, weighting="tfidf" if mode == "tfidf" else "tf",
                          per_document=mode == "per_document")
    profiles, tables = [], []
    for corpus in (corpus_of(source_docs, order, "s"), corpus_of(target_docs, order, "t")):
        table = dict_term_table(Counter(f for doc in corpus.documents for f in ngram_features(doc, order)))
        if not table:  # documents shorter than the order
            with pytest.raises(ComputationError, match="no features"):
                build_profile(corpus, cfg)
            return
        profile = outcome(build_profile, corpus, cfg)
        reference = outcome(reference_per_document, corpus, cfg) if cfg.per_document else outcome(dict_embed, table, cfg)
        if isinstance(profile, str) or isinstance(reference, str):
            assert profile == reference
            return
        assert profile.terms == list(table) and profile.counts == list(table.values())
        assert all(type(c) is int for c in profile.counts)
        assert profile.terms == sorted(profile.terms, key=lambda t: [ord(ch) for ch in t])  # code-point order
        assert profile.embedding.tobytes() == reference.tobytes()
        restored = profile_from_dict(json.loads(canonical_json(profile_to_dict(profile))))
        assert (restored.terms, restored.counts) == (profile.terms, profile.counts)
        profiles.append(restored)
        tables.append(table)
    source, target = profiles
    if cfg.weighting == "tfidf":
        u = outcome(dict_embed, tables[0], cfg, idf_context=tables[1].keys())
        v = outcome(dict_embed, tables[1], cfg, idf_context=tables[0].keys())
    else:
        u, v = source.embedding, target.embedding
    records = outcome(divergence.similarity_table, source, [target])
    if isinstance(u, str) or isinstance(v, str):
        assert records == next(x for x in (u, v) if isinstance(x, str))
        return
    (record,) = records
    assert record.lexical_difference == 1.0 - len(tables[1].keys() & tables[0].keys()) / len(tables[1])
    assert record.cosine_distance.hex() == divergence.cosine_distance(u, v).hex()  # bit for bit
    assert record.kl_divergence.hex() == divergence.kl_divergence(u, v).hex()

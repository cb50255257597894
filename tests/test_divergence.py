"""Similarity measure tests: lexical difference, cosine distance, KL divergence."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domainport.corpus import parse_plaintext
from domainport.divergence import (
    KLSettings,
    SimilarityRecord,
    cosine_distance,
    kl_divergence,
    lexical_difference,
    similarity_table,
)
from domainport.errors import ComputationError, ConfigError
from domainport.features import (
    DomainProfile,
    EmbeddingConfig,
    build_profile,
    embed_builtin,
)
from domainport.hashing import dump_json, fields_from_dict
from test_features import reference_embed


def profile_from_vocab(vocab, domain_id="d"):
    """Minimal profile for lexical tests; the embedding is irrelevant there."""
    return DomainProfile(
        domain_id=domain_id,
        terms=sorted(vocab),
        counts=[1] * len(vocab),
        embedding=np.array([1.0]),
        tokenizer_hash="t",
        embedding_hash="e",
    )


def profile_from_text(text, domain_id, dimension=64, weighting="tf"):
    corpus = parse_plaintext(text, domain_id=domain_id)
    return build_profile(corpus, EmbeddingConfig(dimension=dimension, seed=42, weighting=weighting))


finite_vectors = arrays(
    np.float64,
    st.shared(st.integers(min_value=2, max_value=16), key="dim"),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


# ---------------------------------------------------------------- lexical


def test_lexical_identical_vocabularies():
    a = profile_from_vocab({"a", "b", "c"})
    assert lexical_difference(a, a) == 0.0


def test_lexical_disjoint_vocabularies():
    assert lexical_difference(profile_from_vocab({"a", "b"}), profile_from_vocab({"c", "d"})) == 1.0


def test_lexical_hand_counted_overlap():
    source = profile_from_vocab({"a", "b", "c"})
    target = profile_from_vocab({"b", "c", "d", "e"})
    assert lexical_difference(source, target) == 1.0 - 2.0 / 4.0


def test_lexical_asymmetry():
    small = profile_from_vocab({"a"})
    large = profile_from_vocab({"a", "b"})
    assert lexical_difference(small, large) == 0.5  # half of the target is unseen
    assert lexical_difference(large, small) == 0.0  # the source covers it completely


def test_lexical_empty_target_vocabulary():
    with pytest.raises(ComputationError, match="empty target vocabulary"):
        lexical_difference(profile_from_vocab({"a"}), profile_from_vocab(set()))


@given(
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=12),
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=12),
)
def test_lexical_bounds(source_vocab, target_vocab):
    d = lexical_difference(profile_from_vocab(source_vocab), profile_from_vocab(target_vocab))
    assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------- cosine


def unit(v):
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


def test_cosine_identity_is_exactly_zero():
    v = unit([1.0, 2.0, 3.0])
    assert cosine_distance(v, v) == 0.0


def test_cosine_orthogonal_and_antipodal():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert cosine_distance(e1, e2) == 1.0
    assert cosine_distance(e1, -e1) == 2.0


def test_cosine_snaps_floating_noise_to_zero():
    v = unit([0.3, 0.4, 0.5])
    w = v * (1.0 + 1e-14)  # same direction, last-ulp perturbation
    assert cosine_distance(v, w) == 0.0


def test_cosine_input_validation():
    with pytest.raises(ComputationError, match="dimension mismatch"):
        cosine_distance(np.ones(3), np.ones(4))
    with pytest.raises(ComputationError, match="non-finite"):
        cosine_distance(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))


@given(finite_vectors, finite_vectors)
@settings(max_examples=100)
def test_cosine_symmetry_property(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return
    u, v = u / nu, v / nv
    assert cosine_distance(u, v) == cosine_distance(v, u)
    assert 0.0 <= cosine_distance(u, v) <= 2.0


def test_two_disjoint_single_feature_corpora_have_cosine_distance_one():
    # alpha -> slot 81, beta -> slot 261 at d=300, seed=42: orthogonal projections
    cfg = EmbeddingConfig(dimension=300, seed=42)
    u = embed_builtin({"alpha": 3}, cfg)
    v = embed_builtin({"beta": 5}, cfg)
    assert cosine_distance(u, v) == 1.0


# ---------------------------------------------------------------- kl


def test_kl_identical_vectors_is_exactly_zero():
    v = np.array([0.2, 1.5, -0.3, 4.0])
    assert kl_divergence(v, v) == 0.0
    assert kl_divergence(v, v, method="softmax") == 0.0


def test_kl_hand_computed_two_mass_example():
    # after shift-and-normalize these act as p=[0.9,0.1], q=[0.5,0.5] (third mass ~epsilon);
    # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1) = ln(5/3)
    p_vec = np.array([0.9, 0.1, 0.0])
    q_vec = np.array([0.5, 0.5, 0.0])
    assert math.isclose(kl_divergence(p_vec, q_vec), math.log(5.0 / 3.0), abs_tol=1e-6)


def test_kl_reverse_swaps_arguments():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([3.0, 1.0, 0.5])
    assert kl_divergence(u, v, reverse=True) == kl_divergence(v, u)
    assert kl_divergence(u, v) != kl_divergence(v, u)


def test_kl_input_validation():
    with pytest.raises(ComputationError, match="zero-length"):
        kl_divergence(np.array([]), np.array([]))
    with pytest.raises(ComputationError, match="dimension mismatch"):
        kl_divergence(np.ones(2), np.ones(3))
    with pytest.raises(ComputationError, match="non-finite"):
        kl_divergence(np.array([np.inf, 1.0]), np.ones(2))
    with pytest.raises(ConfigError):
        kl_divergence(np.ones(2), np.ones(2), method="clip")
    with pytest.raises(ConfigError):
        kl_divergence(np.ones(2), np.ones(2), epsilon=0.0)


@given(finite_vectors, finite_vectors)
@settings(max_examples=150)
def test_kl_nonnegative_property(u, v):
    assert kl_divergence(u, v) >= 0.0
    assert kl_divergence(u, v, method="softmax") >= 0.0


@given(finite_vectors, finite_vectors, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_component_permutation_invariance(u, v, rng):
    # permuting both arguments identically leaves cosine and KL unchanged
    order = list(range(u.size))
    rng.shuffle(order)
    pu, pv = u[order], v[order]
    assert math.isclose(kl_divergence(u, v), kl_divergence(pu, pv), abs_tol=1e-12)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu > 0.0 and nv > 0.0:
        assert math.isclose(
            cosine_distance(u / nu, v / nv), cosine_distance(pu / nu, pv / nv), abs_tol=1e-12
        )


def test_kl_settings_validation():
    with pytest.raises(ConfigError):
        KLSettings(epsilon=-1.0)
    with pytest.raises(ConfigError):
        KLSettings(direction="sideways")
    with pytest.raises(ConfigError):
        KLSettings(method="minmax")
    with pytest.raises(ConfigError):
        fields_from_dict(KLSettings, {"epsilon": 1e-9, "mode": "x"}, "kl")
    assert fields_from_dict(KLSettings, {"direction": "reverse"}, "kl").direction == "reverse"


# ---------------------------------------------------------------- similarity_table


def test_self_comparison_row_is_all_zeros():
    profile = profile_from_text("some stable text\nsecond line\n", "self")
    (record,) = similarity_table(profile, [profile])
    assert record.lexical_difference == 0.0
    assert record.cosine_distance == 0.0
    assert record.kl_divergence == 0.0


def test_similarity_table_preserves_target_order():
    source = profile_from_text("alpha beta gamma\n", "src")
    targets = [
        profile_from_text("alpha beta\n", "t1"),
        profile_from_text("delta epsilon\n", "t2"),
        profile_from_text("alpha zeta\n", "t3"),
    ]
    records = similarity_table(source, targets)
    assert [r.target_id for r in records] == ["t1", "t2", "t3"]
    assert all(r.source_id == "src" for r in records)
    assert len({r.config_hash for r in records}) == 1


def test_similarity_table_rejects_mixed_configurations():
    source = profile_from_text("alpha beta\n", "src", dimension=64)
    other = profile_from_text("alpha beta\n", "tgt", dimension=32)
    with pytest.raises(ComputationError, match="incomparable profiles"):
        similarity_table(source, [other])


def test_similarity_table_requires_targets():
    source = profile_from_text("alpha\n", "src")
    with pytest.raises(ComputationError, match="no target profiles"):
        similarity_table(source, [])


def test_kl_direction_setting_changes_the_table():
    source = profile_from_text("alpha beta gamma delta\n", "src")
    target = profile_from_text("alpha epsilon zeta\n", "tgt")
    (fwd,) = similarity_table(source, [target], KLSettings(direction="forward"))
    (rev,) = similarity_table(source, [target], KLSettings(direction="reverse"))
    assert fwd.kl_divergence != rev.kl_divergence
    assert fwd.cosine_distance == rev.cosine_distance  # direction only affects KL
    assert fwd.config_hash != rev.config_hash


def test_tfidf_tables_reembed_per_pair():
    weighted_src = profile_from_text("alpha beta shared\n", "src", weighting="tfidf")
    weighted_tgt = profile_from_text("gamma delta shared\n", "tgt", weighting="tfidf")
    (record,) = similarity_table(weighted_src, [weighted_tgt])
    cfg = weighted_src.embedding_config
    u = reference_embed(weighted_src.term_freq, cfg, idf_context=weighted_tgt.term_freq)
    v = reference_embed(weighted_tgt.term_freq, cfg, idf_context=weighted_src.term_freq)
    assert record.cosine_distance == cosine_distance(u, v)
    # stored profile vectors are context-free, so the pairwise values differ from them
    assert record.cosine_distance != cosine_distance(weighted_src.embedding, weighted_tgt.embedding)


SOURCE_TEXT = "alpha beta shared naïve\nbeta beta gamma 東京\nshared words here\n"
TARGET_TEXTS = (
    "gamma delta shared\nalpha words\n",
    "completely other vocabulary\n",
    "alpha beta shared naïve\nbeta beta gamma 東京\nshared words here\n",  # the source itself
    "beta\nbeta beta beta\nhere here\n",
)


@pytest.mark.parametrize("weighting", ["tf", "tfidf"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_similarity_table_matches_the_per_pair_embedding(weighting, direction):
    # the source table is prepared once per call; every record must equal the
    # one computed from the per-feature loop over both profiles for that pair
    source = profile_from_text(SOURCE_TEXT, "src", dimension=32, weighting=weighting)
    targets = [profile_from_text(t, f"t{i}", dimension=32, weighting=weighting) for i, t in enumerate(TARGET_TEXTS)]
    kl = KLSettings(direction=direction)
    cfg = source.embedding_config
    for record, target in zip(similarity_table(source, targets, kl), targets, strict=True):
        if weighting == "tfidf":
            u = reference_embed(source.term_freq, cfg, idf_context=target.term_freq)
            v = reference_embed(target.term_freq, cfg, idf_context=source.term_freq)
        else:
            u, v = source.embedding, target.embedding
        assert record.lexical_difference == lexical_difference(source, target)
        assert record.cosine_distance == cosine_distance(u, v)
        assert record.kl_divergence == kl_divergence(u, v, kl.epsilon, reverse=(direction == "reverse"))


# ---------------------------------------------------------------- records


def test_similarity_record_range_validation():
    with pytest.raises(ComputationError):
        SimilarityRecord("s", "t", lexical_difference=1.2, cosine_distance=0.0,
                         kl_divergence=0.0, config_hash="h")
    with pytest.raises(ComputationError):
        SimilarityRecord("s", "t", lexical_difference=0.0, cosine_distance=2.5,
                         kl_divergence=0.0, config_hash="h")
    with pytest.raises(ComputationError):
        SimilarityRecord("s", "t", lexical_difference=0.0, cosine_distance=0.0,
                         kl_divergence=-0.1, config_hash="h")


def test_records_serialize_to_json():
    source = profile_from_text("alpha beta gamma\n", "src")
    targets = [profile_from_text("alpha delta\n", "t1"), profile_from_text("epsilon\n", "t2")]
    records = similarity_table(source, targets)

    payload = json.loads(dump_json([dataclasses.asdict(r) for r in records]))
    assert [r["target_id"] for r in payload] == ["t1", "t2"]
    assert payload[0]["kl_divergence"] == records[0].kl_divergence

"""Hash primitive tests: reference vectors, slot mapping, canonical JSON."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domainport.hashing import canonical_json, content_digest, feature_slot, fnv1a_64, fnv1a_64_many, slot_and_sign, stable_hash

SEEDS = (0, 42, -1, 2**64 - 1, 2**70 + 3)


def test_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_content_digest_reference_values():
    # 64-bit BLAKE2b, the same digests as `b2sum -l 64`
    assert content_digest(b"") == "e4a6a0577479b2b4"
    assert content_digest(b"foobar") == "9d212f7f254a51f9"


def test_batched_reference_vectors():
    hashes = fnv1a_64_many([b"", b"a", b"foobar"])
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
    assert fnv1a_64_many([]).tolist() == []


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_hash_is_bitwise_equal_to_the_scalar_loop(seed):
    items = [b"", b"a", b"foobar", "naïve 東京 🙂".encode("utf-8"), b"m" * (1 << 20), b"\x00\xff" * 9]
    items += [f"w{i}".encode("utf-8") * (i % 7) for i in range(300)]
    assert fnv1a_64_many(items, seed=seed).tolist() == [fnv1a_64(item, seed=seed) for item in items]


def test_one_long_item_costs_about_as_much_as_the_scalar_loop():
    # the long item is finished by the scalar loop, not one array pass per byte
    items = [b"m" * (1 << 20)] + [b"short"] * 100
    start = time.process_time()
    expected = [fnv1a_64(item) for item in items]
    scalar_seconds = time.process_time() - start
    start = time.process_time()
    assert fnv1a_64_many(items).tolist() == expected
    assert time.process_time() - start < 5 * scalar_seconds + 0.5


@given(st.lists(st.binary(max_size=80), max_size=120), st.sampled_from(SEEDS))
def test_batched_hash_matches_the_scalar_loop_on_any_batch(items, seed):
    assert fnv1a_64_many(items, seed=seed).tolist() == [fnv1a_64(item, seed=seed) for item in items]


def test_seed_changes_the_hash_family():
    assert fnv1a_64(b"alpha", seed=1) != fnv1a_64(b"alpha", seed=0)
    assert fnv1a_64(b"alpha", seed=42) != fnv1a_64(b"alpha", seed=7)
    # seed 0 is plain FNV-1a
    assert fnv1a_64(b"alpha", seed=0) == fnv1a_64(b"alpha")


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**64 - 1))
def test_hash_is_a_pure_64_bit_function(data, seed):
    h1 = fnv1a_64(data, seed=seed)
    h2 = fnv1a_64(data, seed=seed)
    assert h1 == h2
    assert 0 <= h1 < 2**64


def test_feature_slot_known_positions():
    # frozen slot assignments for the default embedding config (d=300, seed=42);
    # divergence tests rely on alpha/beta landing in different slots
    assert feature_slot("alpha", 300, 42) == (81, -1.0)
    assert feature_slot("beta", 300, 42) == (261, 1.0)
    assert feature_slot("gamma", 300, 42) == (36, -1.0)


@given(st.text(min_size=1, max_size=20), st.integers(min_value=1, max_value=512))
def test_feature_slot_range_and_sign(feature, dimension):
    index, sign = feature_slot(feature, dimension, seed=42)
    assert 0 <= index < dimension
    assert sign in (-1.0, 1.0)


def test_slot_rule_is_the_same_for_one_hash_and_an_array():
    features = ["alpha", "beta", "gamma", *(f"f{i}" for i in range(100))]
    slots, signs = slot_and_sign(fnv1a_64_many([f.encode("utf-8") for f in features], seed=42), 300)
    assert list(zip(slots.tolist(), signs.tolist()))[:3] == [(81, -1.0), (261, 1.0), (36, -1.0)]
    assert list(zip(slots.tolist(), signs.tolist())) == [feature_slot(f, 300, 42) for f in features]


def test_feature_slot_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        feature_slot("x", 0)


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [2, 3], "c": {"z": None, "y": True}})
    assert s == '{"a":[2,3],"b":1,"c":{"y":true,"z":null}}'
    assert json.loads(s) == {"a": [2, 3], "b": 1, "c": {"y": True, "z": None}}


def test_stable_hash_ignores_key_order():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_stable_hash_is_16_hex_digits():
    digest = stable_hash(["anything", {"at": "all"}])
    assert len(digest) == 16
    assert set(digest) <= set("0123456789abcdef")

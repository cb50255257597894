"""Hash primitive tests: reference vectors, slot mapping, canonical JSON."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domainport import cli, hashing
from domainport.cli import load_config
from domainport.corpus import TokenizerConfig
from domainport.divergence import KLSettings
from domainport.errors import ConfigError
from domainport.features import EmbeddingConfig
from domainport.hashing import (
    canonical_json,
    content_digest,
    feature_slot,
    fields_from_dict,
    fnv1a_64,
    fnv1a_64_many,
    slot_and_sign,
    stable_hash,
)

SEEDS = (0, 42, -1, 2**64 - 1, 2**70 + 3)


def test_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_content_digest_reference_values():
    # the first 16 hex digits of SHA-256, the same digests as `sha256sum | cut -c1-16`
    assert content_digest(b"") == "e3b0c44298fc1c14"
    assert content_digest(b"foobar") == "c3ab8ff13720e8ad"
    assert content_digest(b"abc") == "ba7816bf8f01cfea"  # FIPS 180-2's first SHA-256 example
    for data in (b"a", "naïve 東京 🙂".encode("utf-8"), b"\x00" * 64, b"\xff" * 1000, b"m" * (1 << 20) + b"!"):
        assert content_digest(data) == hashlib.sha256(data).hexdigest()[:16]


# a hash example as the docs quote it: content_digest(b"...") or stable_hash(<a Python literal>) == "<16 hex>",
# or fnv1a_64(b"..."[, seed=N]) == 0x<16 hex>
DOCUMENTED_EXAMPLE = re.compile(r'\b(content_digest|fnv1a_64|stable_hash)\((b"[^"\n]*"|[^()\n]*)(?:, seed=(\d+))?\)'
                                r'\s*==\s*("[0-9a-f]{16}"|0x[0-9A-Fa-f]{16}\b)')
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
HASHES = {"content_digest": content_digest, "fnv1a_64": fnv1a_64, "stable_hash": stable_hash}


@pytest.mark.parametrize("text", [README, hashing.__doc__], ids=["README", "hashing-docstring"])
def test_the_documented_hash_examples_hold(text):
    examples = list(DOCUMENTED_EXAMPLE.finditer(text))
    for name, call in (("content_digest", 'content_digest(b"'), ("fnv1a_64", 'fnv1a_64(b"'),
                       ("stable_hash", "stable_hash(")):
        # every quoted call is an example the pattern reads, and each function has one
        assert 0 < sum(m[1] == name for m in examples) == text.count(call)
    for m in examples:
        arg, expected = ast.literal_eval(m[2]), ast.literal_eval(m[4])
        got = HASHES[m[1]](arg) if m[3] is None else fnv1a_64(arg, seed=int(m[3]))
        assert got == expected, m[0]


def test_batched_reference_vectors():
    hashes = fnv1a_64_many([b"", b"a", b"foobar"])
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
    assert fnv1a_64_many([]).tolist() == []


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_hash_is_bitwise_equal_to_the_scalar_loop(seed):
    items = [b"", b"a", b"foobar", "naïve 東京 🙂".encode("utf-8"), b"m" * (1 << 20), b"\x00\xff" * 9]
    items += [f"w{i}".encode("utf-8") * (i % 7) for i in range(300)]
    # at most 16 items are all finished by the scalar tail, 17 and more take the array passes
    for batch in (items[:0], items[:1], items[:16], items[:17], items[-16:], items[-17:], items):
        hashes = fnv1a_64_many(batch, seed=seed)
        assert hashes.dtype == np.uint64 and hashes.shape == (len(batch),)
        assert hashes.tolist() == [fnv1a_64(item, seed=seed) for item in batch]


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


# ---------------------------------------------------------------- record codec

# a config that sets every field the config hash covers
FULL_CONFIG = {
    "out_dir": "results",
    "tokenizer": {"lowercase": False, "split_mode": "whitespace", "ngram_order": 2, "strip_punctuation": False},
    "embedding": {"dimension": 64, "seed": 3, "weighting": "tfidf", "per_document": False},
    "kl": {"epsilon": 1e-6, "direction": "reverse", "method": "softmax"},
    "corpora": [
        {"domain_id": "src", "path": "a.conll", "format": "conll", "dataset": "conll", "split": "train"},
        {"domain_id": "pairs", "path": "b.jsonl", "format": "jsonl", "fields": ["premise", "hypothesis"],
         "dataset": "snli", "split": "test"},
        {"domain_id": "paras", "path": "c.txt", "format": "text", "text_unit": "paragraph",
         "dataset": "wiki", "split": "dev"},
    ],
    "external_embeddings": "vectors.json",
    "scores": {"path": "scores.csv", "metric": "accuracy"},
    "transport": {
        "task": "ner",
        "source": {"dataset": "conll", "split": "train"},
        "targets": [{"dataset": "snli", "split": "test", "group": "near"}, ["wiki", "dev"]],
        "systems": ["sys-a", "sys-b"],
        "bias_corrected": True,
    },
    "similarity": {"source": "src", "targets": ["pairs", "paras"]},
    "fit": {"predictors": ["kl", "lexical"]},
}


def sha256_16(text):
    """The first 16 hex digits of the SHA-256 of ``text``'s UTF-8, as ``sha256sum | cut -c1-16`` gives them."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_stable_hash_is_the_sha256_of_canonical_json():
    assert stable_hash({}) == "44136fa355b3678a" == sha256_16("{}")
    assert stable_hash(None) == "74234e98afe7498f" == sha256_16("null")
    obj = {"b": [1, 2.5, None], "a": {"k": "naïve 東京 🙂", "t": True}}
    assert stable_hash(obj) == sha256_16('{"a":{"k":"naïve 東京 🙂","t":true},"b":[1,2.5,null]}')


def test_config_hashes_are_pinned():
    # each default record's canonical JSON, written out by hand; the codec must not move its hash
    pinned = [
        (TokenizerConfig(), '{"lowercase":true,"ngram_order":1,"split_mode":"unicode_word","strip_punctuation":true}',
         "64746fe9cfcfb03a"),
        (EmbeddingConfig(), '{"dimension":300,"per_document":false,"seed":42,"weighting":"tf"}', "8a017b2381bc2768"),
        (KLSettings(), '{"direction":"forward","epsilon":1e-09,"method":"shift"}', "a603d0e9cfb8fdbf"),
    ]
    for record, text, expected in pinned:
        assert sha256_16(text) == expected
        assert stable_hash(dataclasses.asdict(record)) == expected
    assert TokenizerConfig().config_hash() == "64746fe9cfcfb03a"
    assert EmbeddingConfig().config_hash() == "8a017b2381bc2768"


def stage_hashes(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cfg = load_config(path)
    hashes = cli._Hashes(cfg)
    return {stage: hashes[stage] for stage in cli.STAGES}, {c.domain_id: hashes.corpus(c) for c in cfg.corpora}


def test_stage_hashes_are_pinned(tmp_path):
    stages, corpora = stage_hashes(tmp_path, FULL_CONFIG)
    assert stages == {"ingest": "1a276c8473900e7a", "similarity": "020996749570cbbd", "transport": "2a217dc73b078743",
                      "fit": "03cb491ac324120c", "report": "76b12e6145690c4e"}
    assert corpora == {"src": "e947b10f54b81fc1", "pairs": "1d75be6bbfcfba99", "paras": "6628b7e7fd251296"}
    # a corpus hash by hand: the ingest hash and the corpus's parse settings
    assert sha256_16('{"fields":["premise","hypothesis"],"format":"jsonl","ingest":"1a276c8473900e7a",'
                     '"text_unit":"line"}') == corpora["pairs"]
    # the transport hash by hand: the digest of its blocks' digests, each of a record encoded as its fields
    scores = sha256_16('{"metric":"accuracy","path":"scores.csv"}')
    transport = sha256_16('{"bias_corrected":true,"groups":{"near":[["snli","test"]]},"source":["conll","train"],'
                          '"systems":["sys-a","sys-b"],"targets":[["snli","test"],["wiki","dev"]],"task":"ner"}')
    assert sha256_16(f'{{"blocks":{{"scores":"{scores}","transport":"{transport}"}},"reads":{{}},"stage":"transport"}}'
                     ) == stages["transport"]


def edited(key, value, *path):
    config = json.loads(json.dumps(FULL_CONFIG))
    block = config
    for step in path:
        block = block[step]
    block[key] = value
    return config


INGESTED = {"ingest", "src", "pairs", "paras"}  # the ingest hash and each corpus's


@pytest.mark.parametrize("config, moved", [
    (edited("predictors", ["kl"], "fit"), {"fit", "report"}),
    (edited("direction", "forward", "kl"), {"similarity", "fit", "report"}),
    (edited("targets", ["pairs"], "similarity"), {"similarity", "fit", "report"}),
    (edited("bias_corrected", False, "transport"), {"transport", "fit", "report"}),
    (edited("metric", "F1", "scores"), {"transport", "fit", "report"}),
    (edited("ngram_order", 1, "tokenizer"), {*INGESTED, "similarity", "fit", "report"}),
    (edited("external_embeddings", "other.json"), {*INGESTED, "similarity", "fit", "report"}),
    (edited("seed", 4, "embedding"), set()),  # unused: external vectors stand in for the projection
    (edited("external_embeddings", None), {*INGESTED, "similarity", "fit", "report"}),
    (edited("dataset", "wiki2", "corpora", 2), {"similarity", "fit", "report"}),
    (edited("text_unit", "line", "corpora", 2), {"similarity", "fit", "report", "paras"}),
    (edited("fields", ["premise"], "corpora", 1), {"similarity", "fit", "report", "pairs"}),
    (edited("out_dir", "elsewhere"), set()),
], ids=["fit", "kl", "similarity", "transport", "scores", "tokenizer", "external", "unused-embedding",
        "no-external", "corpus-dataset", "corpus-text-unit", "corpus-fields", "out-dir"])
def test_a_config_block_moves_the_hashes_of_the_stages_that_depend_on_it(tmp_path, config, moved):
    before = stage_hashes(tmp_path, FULL_CONFIG)
    after = stage_hashes(tmp_path, config)
    assert {name for old, new in zip(before, after) for name in old if old[name] != new[name]} == moved


def test_stable_hash_refuses_an_object_it_cannot_encode():
    with pytest.raises(TypeError):
        stable_hash(TokenizerConfig())  # a record is hashed only through an explicit ``default``
    record = TokenizerConfig()
    assert stable_hash(record, default=cli._record_fields) == stable_hash(dataclasses.asdict(record))
    with pytest.raises(TypeError):
        stable_hash(object(), default=cli._record_fields)


RECORDS = {  # a record of each class, and changes to it
    TokenizerConfig: (TokenizerConfig(), {"lowercase": False, "ngram_order": 3}),
    EmbeddingConfig: (EmbeddingConfig(), {"dimension": 16, "weighting": "tfidf"}),
    KLSettings: (KLSettings(), {"epsilon": 0.5, "method": "softmax"}),
}


@pytest.mark.parametrize("cls", list(RECORDS))
def test_config_records_round_trip(cls):
    default, changes = RECORDS[cls]
    for record in (default, dataclasses.replace(default, **changes)):
        assert fields_from_dict(cls, dataclasses.asdict(record), "record") == record
        assert fields_from_dict(cls, json.loads(canonical_json(dataclasses.asdict(record))), "record") == record



@dataclasses.dataclass(frozen=True)
class Block:
    b: int
    a: int
    c: int = 0
    d: tuple = dataclasses.field(default_factory=tuple)
    derived: int = dataclasses.field(default=0, metadata={"derived": True})


@pytest.mark.parametrize("data, message", [
    ([], "block must be an object"),
    ({"a": 1, "b": 2, "zz": 0, "derived": 1}, "unknown block fields: ['derived', 'zz']"),  # a derived field is no key
    ({"zz": 0}, "unknown block fields: ['zz']"),  # unknown keys are refused before missing ones
    ({"c": 1}, "missing block fields: ['b', 'a']"),  # in field order
    ({"b": 1, "d": ()}, "missing block fields: ['a']"),
])
def test_fields_from_dict_names_unknown_then_missing_keys(data, message):
    for _ in range(2):  # the second call reads the class's keys from the cache
        with pytest.raises(ConfigError) as info:
            fields_from_dict(Block, data, "block")
        assert str(info.value) == message
    assert fields_from_dict(Block, {"a": 1, "b": 2}, "block") == Block(b=2, a=1)

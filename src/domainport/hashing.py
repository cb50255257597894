"""Deterministic hashing primitives.

Feature slots go through the 64-bit FNV-1a function defined here, so
embeddings are reproducible across platforms and process restarts. Every
other hash is ``content_digest``, the first 64 bits of a SHA-256 digest
from the standard library (OpenSSL's), which runs at C speed: the content
keys (the digests of stage inputs and outputs, and of each corpus file in
its profile's source key) digest bytes, and ``stable_hash`` (config, stage
and corpus hashes, and stamp keys) digests an object's canonical JSON.

``fnv1a_64`` hashes one byte string; ``fnv1a_64_many`` hashes a batch
with uint64 array arithmetic and returns the same values bit for bit.
``slot_and_sign`` is the one rule that turns a hash into a feature slot
and sign, for a single hash and for an array of them alike.

``canonical_json`` (sorted keys, no whitespace) is the encoding config
hashes digest, and also that of every file under ``cache/`` (profiles and
stage stamps), which only the program reads; such a file is the canonical
JSON and a newline. ``dump_json`` (sorted keys, two-space indent and a
newline) is the encoding of every other JSON artifact, which people read.
Each is one ``json.dumps`` call. Config blocks and records (settings,
similarity records, fitted models and their fit logs) have one codec:
they are written by ``dataclasses.asdict`` (both encodings write its
tuples as lists) and read by ``fields_from_dict``, which refuses a block
that is not an object, keys that are not fields and required fields that
are missing.

Reference vectors with seed 0:

    fnv1a_64(b"")       == 0xcbf29ce484222325
    fnv1a_64(b"a")      == 0xaf63dc4c8601ec8c
    fnv1a_64(b"foobar") == 0x85944171f73967e8

and of the content digest (the same as ``sha256sum | cut -c1-16``):

    content_digest(b"")       == "e3b0c44298fc1c14"
    content_digest(b"foobar") == "c3ab8ff13720e8ad"

and of the config hash, the content digest of ``canonical_json``'s UTF-8:

    stable_hash({})   == "44136fa355b3678a"
    stable_hash(None) == "74234e98afe7498f"
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import MISSING, fields
from typing import Any, Callable, Sequence, TypeVar

from .errors import ConfigError
from .lazy import np

T = TypeVar("T")

FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``.

    A nonzero ``seed`` is XORed into the offset basis, giving a family
    of independent hash functions while keeping seed 0 equal to the
    reference FNV-1a.
    """
    h = FNV_OFFSET_BASIS ^ (seed & _MASK64)
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


# Below this many unfinished items a uint64 column pass costs more than
# finishing each item with the scalar loop.
_SCALAR_TAIL = 16


def fnv1a_64_many(items: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """``fnv1a_64`` of every item, as a uint64 array in input order.

    Items are ordered longest first, so the items still unfinished at
    byte column ``j`` are a prefix of that order, and each column is one
    xor-multiply over the prefix (uint64 products wrap mod 2**64, as the
    scalar loop masks them). Once at most ``_SCALAR_TAIL`` items remain,
    each finishes with the scalar loop, resumed from its partial hash; a
    single very long item therefore costs no more than ``fnv1a_64``.
    """
    n = len(items)
    lengths = np.fromiter(map(len, items), dtype=np.int64, count=n)
    order = np.argsort(-lengths, kind="stable")
    h = np.full(n, FNV_OFFSET_BASIS ^ (seed & _MASK64), dtype=np.uint64)
    columns = int(lengths[order[_SCALAR_TAIL]]) if n > _SCALAR_TAIL else 0
    if columns:
        data = np.frombuffer(b"".join(items), dtype=np.uint8)
        at = (np.cumsum(lengths) - lengths)[order]  # offset of each item's next byte
        # live[j]: how many items have a byte in column j
        live = np.searchsorted(-lengths[order], -np.arange(columns), side="left")
        prime = np.uint64(FNV_PRIME)
        for k in live.tolist():
            h[:k] ^= data[at[:k]]
            h[:k] *= prime
            at[:k] += 1
    unfinished = order[: int(np.count_nonzero(lengths > columns))].tolist()
    h[: len(unfinished)] = [
        fnv1a_64(items[i][columns:], seed=partial ^ FNV_OFFSET_BASIS)
        for i, partial in zip(unfinished, h[: len(unfinished)].tolist())
    ]
    out = np.empty(n, dtype=np.uint64)
    out[order] = h
    return out


def slot_and_sign(h: Any, dimension: int) -> tuple[Any, Any]:
    """Slot ``h % dimension`` and sign (-1.0 when the top bit is set).

    ``h`` is one hash (a Python int) or a uint64 array of hashes; the
    sign does not depend on the dimension.
    """
    return h % dimension, 1.0 - 2.0 * (h >> 63)


def feature_slot(feature: str, dimension: int, seed: int = 0) -> tuple[int, float]:
    """Map a feature string to (index, sign) for signed feature hashing.

    Index is ``hash % dimension``; the sign comes from the top bit of
    the same hash so it is independent of the dimension.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return slot_and_sign(fnv1a_64(feature.encode("utf-8"), seed=seed), dimension)


def canonical_json(obj: Any, default: Callable[[Any], Any] | None = None) -> str:
    """Serialize to a canonical JSON string: sorted keys, no whitespace; ``default`` as in ``json.dumps``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=default)


def dump_json(obj: Any) -> str:
    """Serialize an artifact: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def stable_hash(obj: Any, default: Callable[[Any], Any] | None = None) -> str:
    """``content_digest`` of an object's canonical JSON form, UTF-8 encoded."""
    return content_digest(canonical_json(obj, default).encode("utf-8"))


def content_digest(data: bytes) -> str:
    """First 16 hex digits of the SHA-256 digest of ``data``, the cache key of file contents."""
    return hashlib.sha256(data).hexdigest()[:16]


@functools.cache
def _keys(cls: type) -> tuple[frozenset[str], tuple[str, ...]]:
    """The key names of dataclass ``cls`` and, in field order, those it requires."""
    keys = [f for f in fields(cls) if not f.metadata.get("derived")]
    return (frozenset(f.name for f in keys),
            tuple(f.name for f in keys if f.default is MISSING and f.default_factory is MISSING))


def fields_from_dict(cls: type[T], data: dict[str, Any], kind: str) -> T:
    """``cls(**data)`` for a dataclass ``cls``; a non-object, unknown key or missing required field is a ConfigError.

    A field whose metadata marks it ``derived`` is computed by ``cls``, so it is not a key.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} must be an object")
    names, required = _keys(cls)
    unknown = data.keys() - names
    if unknown:
        raise ConfigError(f"unknown {kind} fields: {sorted(unknown)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigError(f"missing {kind} fields: {missing}")
    return cls(**data)

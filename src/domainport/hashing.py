"""Deterministic hashing primitives.

Feature slots and config hashes go through the 64-bit FNV-1a function
defined here, so results are reproducible across platforms and process
restarts. Content keys (the ingest cache's ``input_hash``) use
``content_digest``, a 64-bit BLAKE2b digest from the standard library
that hashes whole input files at C speed.

``fnv1a_64`` hashes one byte string; ``fnv1a_64_many`` hashes a batch
with uint64 array arithmetic and returns the same values bit for bit.
``slot_and_sign`` is the one rule that turns a hash into a feature slot
and sign, for a single hash and for an array of them alike.

Reference vectors with seed 0:

    fnv1a_64(b"")       == 0xcbf29ce484222325
    fnv1a_64(b"a")      == 0xaf63dc4c8601ec8c
    fnv1a_64(b"foobar") == 0x85944171f73967e8

and of the content digest (the same as ``b2sum -l 64``):

    content_digest(b"")       == "e4a6a0577479b2b4"
    content_digest(b"foobar") == "9d212f7f254a51f9"
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence

import numpy as np

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


def canonical_json(obj: Any) -> str:
    """Serialize to a canonical JSON string: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def stable_hash(obj: Any) -> str:
    """16-hex-digit digest of an object's canonical JSON form."""
    return f"{fnv1a_64(canonical_json(obj).encode('utf-8')):016x}"


def content_digest(data: bytes) -> str:
    """16-hex-digit BLAKE2b digest of ``data``, the cache key of file contents."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()

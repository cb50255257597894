"""Similarity and divergence measures between domain profiles.

Three measures, all oriented so that larger means more different:
vocabulary-based lexical difference, cosine distance between profile
embeddings, and a KL divergence between distributions derived from
those embeddings.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ComputationError, ConfigError
from .features import DomainProfile, HashedTable, embed_builtin
from .hashing import stable_hash

KL_METHODS = ("shift", "softmax")
KL_DIRECTIONS = ("forward", "reverse")

_SNAP = 1e-12


@dataclass(frozen=True)
class KLSettings:
    """How embedding vectors become probability distributions for KL.

    ``shift`` subtracts the minimum and adds ``epsilon`` before
    normalizing; ``softmax`` exponentiates instead. ``forward`` keeps
    the divergence oriented target-from-source; ``reverse`` flips it.
    """

    epsilon: float = 1e-9
    direction: str = "forward"
    method: str = "shift"

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("epsilon must be a positive finite number")
        if self.direction not in KL_DIRECTIONS:
            raise ConfigError(f"unknown KL direction {self.direction!r}; expected one of {KL_DIRECTIONS}")
        if self.method not in KL_METHODS:
            raise ConfigError(f"unknown KL method {self.method!r}; expected one of {KL_METHODS}")

    def to_dict(self) -> dict[str, Any]:
        return {"epsilon": self.epsilon, "direction": self.direction, "method": self.method}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KLSettings":
        known = {f: data[f] for f in ("epsilon", "direction", "method") if f in data}
        extra = set(data) - set(known)
        if extra:
            raise ConfigError(f"unknown KL fields: {sorted(extra)}")
        return cls(**known)


@dataclass(frozen=True)
class SimilarityRecord:
    """One source-target comparison across all three measures."""

    source_id: str
    target_id: str
    lexical_difference: float
    cosine_distance: float
    kl_divergence: float
    config_hash: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.lexical_difference <= 1.0):
            raise ComputationError(f"lexical difference out of range: {self.lexical_difference}")
        if not (0.0 <= self.cosine_distance <= 2.0):
            raise ComputationError(f"cosine distance out of range: {self.cosine_distance}")
        if self.kl_divergence < 0.0:
            raise ComputationError(f"negative KL divergence: {self.kl_divergence}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "source_id": self.source_id,
            "target_id": self.target_id,
            "lexical_difference": self.lexical_difference,
            "cosine_distance": self.cosine_distance,
            "kl_divergence": self.kl_divergence,
            "config_hash": self.config_hash,
        }


CSV_COLUMNS = ("source_id", "target_id", "lexical_difference", "cosine_distance", "kl_divergence")


def lexical_difference(source: DomainProfile, target: DomainProfile) -> float:
    """Share of the target vocabulary absent from the source.

    1 - |V_t intersect V_s| / |V_t|. Asymmetric by design: it reads as
    how much of the target domain the source has never seen.
    """
    target_vocab = target.term_freq.keys()
    if not target_vocab:
        raise ComputationError(f"empty target vocabulary for domain {target.domain_id!r}")
    overlap = len(target_vocab & source.term_freq.keys())
    return 1.0 - overlap / len(target_vocab)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 minus the dot product of two unit vectors, clamped to [0, 2].

    Values within 1e-12 of zero are snapped to exactly 0 so identical
    profiles always compare as distance 0.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ComputationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ComputationError("non-finite component in embedding vector")
    d = 1.0 - float(np.dot(a, b))
    if abs(d) < _SNAP:
        return 0.0
    return min(max(d, 0.0), 2.0)


def _to_distribution(v: np.ndarray, epsilon: float, method: str) -> np.ndarray:
    if method == "softmax":
        e = np.exp(v - np.max(v))
        return e / np.sum(e)
    shifted = v - np.min(v) + epsilon
    return shifted / np.sum(shifted)


def kl_divergence(
    source_vec: np.ndarray,
    target_vec: np.ndarray,
    epsilon: float = 1e-9,
    *,
    reverse: bool = False,
    method: str = "shift",
) -> float:
    """KL divergence between distributions derived from two vectors.

    Vectors are made into strictly positive distributions first (see
    :class:`KLSettings`), so the divergence is always finite. Forward
    direction is sum over q*ln(q/p) with q from the target and p from
    the source; ``reverse`` swaps the roles.
    """
    if method not in KL_METHODS:
        raise ConfigError(f"unknown KL method {method!r}; expected one of {KL_METHODS}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be a positive finite number")
    a = np.asarray(source_vec, dtype=np.float64)
    b = np.asarray(target_vec, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ComputationError("zero-length vector")
    if a.shape != b.shape:
        raise ComputationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ComputationError("non-finite component in embedding vector")
    p = _to_distribution(a, epsilon, method)
    q = _to_distribution(b, epsilon, method)
    if reverse:
        p, q = q, p
    value = float(np.sum(q * np.log(q / p)))
    if math.isnan(value):
        raise ComputationError("KL divergence evaluated to NaN")
    if value < 0.0:
        # Gibbs' inequality: any negative value is floating-point noise
        if value < -1e-9:
            raise ComputationError(f"KL divergence evaluated negative: {value}")
        return 0.0
    return value


def _pair_vectors(
    source: DomainProfile, source_table: HashedTable | None, target: DomainProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Embedding pair for a comparison, re-projected when idf needs pair context.

    ``source_table`` is the source's prepared table when its weighting
    is tfidf, else None.
    """
    cfg = source.embedding_config
    if source_table is not None and target.embedding_config == cfg:
        u = embed_builtin(source_table, cfg, idf_context=target.term_freq.keys())
        v = embed_builtin(target.term_freq, cfg, idf_context=source.term_freq.keys())
        return u, v
    return source.embedding, target.embedding


def similarity_table(
    source: DomainProfile,
    targets: Sequence[DomainProfile],
    settings: KLSettings | None = None,
) -> list[SimilarityRecord]:
    """All three measures from one source to each target, in target order.

    Profiles must have been built with identical tokenizer and
    embedding configurations; mixing them is an error, not a warning.
    """
    kl = settings or KLSettings()
    if not targets:
        raise ComputationError("no target profiles given")
    for t in targets:
        if t.config_hash() != source.config_hash():
            raise ComputationError(
                f"incomparable profiles: {t.domain_id!r} was built with a different "
                f"tokenizer or embedding configuration than {source.domain_id!r}"
            )
    run_hash = stable_hash({"profile": source.config_hash(), "kl": kl.to_dict()})
    cfg = source.embedding_config
    source_table = None
    if cfg is not None and cfg.weighting == "tfidf" and source.embedding_source.kind == "builtin":
        source_table = HashedTable.of(source.term_freq, cfg)  # sorted and hashed once for every target
    records = []
    for t in targets:
        u, v = _pair_vectors(source, source_table, t)
        records.append(
            SimilarityRecord(
                source_id=source.domain_id,
                target_id=t.domain_id,
                lexical_difference=lexical_difference(source, t),
                cosine_distance=cosine_distance(u, v),
                kl_divergence=kl_divergence(
                    u, v, kl.epsilon, reverse=(kl.direction == "reverse"), method=kl.method
                ),
                config_hash=run_hash,
            )
        )
    return records


def records_to_csv(records: Sequence[SimilarityRecord]) -> str:
    """RFC-4180 CSV with the fixed column order source, target, lexical, cosine, kl."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [r.source_id, r.target_id, repr(r.lexical_difference), repr(r.cosine_distance), repr(r.kl_divergence)]
        )
    return buf.getvalue()


def records_to_json(records: Sequence[SimilarityRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], sort_keys=True, indent=2, ensure_ascii=False) + "\n"

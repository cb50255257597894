"""Domain profiles: n-gram statistics and fixed-dimension embeddings.

A profile summarizes one corpus: its n-gram frequency table plus a
single unit-norm embedding vector. Embeddings come either from the
built-in deterministic projection (signed feature hashing, so no model
download is ever needed) or from user-supplied external vectors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import IO, Any, Collection, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ComputationError, ConfigError, ParseError
from .hashing import fnv1a_64_many, slot_and_sign, stable_hash

WEIGHTINGS = ("tf", "tfidf")

DEFAULT_DIMENSION = 300
DEFAULT_SEED = 42


@dataclass(frozen=True)
class EmbeddingConfig:
    """Settings for the built-in hashed projection."""

    dimension: int = DEFAULT_DIMENSION
    seed: int = DEFAULT_SEED
    weighting: str = "tf"
    per_document: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 2:
            raise ConfigError("embedding dimension must be an integer >= 2")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}; expected one of {WEIGHTINGS}")
        if self.per_document and self.weighting == "tfidf":
            # pairwise idf needs per-document counts that profiles do not keep
            raise ConfigError("per_document averaging supports tf weighting only")

    def to_dict(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "seed": self.seed,
            "weighting": self.weighting,
            "per_document": self.per_document,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EmbeddingConfig":
        known = {f: data[f] for f in ("dimension", "seed", "weighting", "per_document") if f in data}
        extra = set(data) - set(known)
        if extra:
            raise ConfigError(f"unknown embedding fields: {sorted(extra)}")
        return cls(**known)

    def config_hash(self) -> str:
        return stable_hash(self.to_dict())


@dataclass(frozen=True)
class EmbeddingSource:
    """Where a profile's vector came from (for provenance and comparability)."""

    kind: str  # "builtin" or "external"
    seed: int | None = None
    dimension: int = 0
    path: str | None = None

    def label(self) -> str:
        if self.kind == "builtin":
            return f"builtin(seed={self.seed}, d={self.dimension})"
        return f"external({self.path})"

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "seed": self.seed, "dimension": self.dimension, "path": self.path}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EmbeddingSource":
        return cls(
            kind=data["kind"],
            seed=data.get("seed"),
            dimension=data.get("dimension", 0),
            path=data.get("path"),
        )


@dataclass(frozen=True, eq=False)
class DomainProfile:
    """Feature summary of one corpus.

    ``embedding`` is always unit L2 norm. ``tokenizer_hash`` and
    ``embedding_hash`` identify the configurations that produced the
    profile; two profiles are comparable only when both hashes agree.
    """

    domain_id: str
    term_freq: Mapping[str, int]
    embedding: np.ndarray
    embedding_source: EmbeddingSource
    tokenizer_hash: str
    embedding_hash: str
    embedding_config: EmbeddingConfig | None = None  # set for builtin embeddings

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.term_freq)

    def config_hash(self) -> str:
        return stable_hash({"tokenizer": self.tokenizer_hash, "embedding": self.embedding_hash})


def ngram_features(tokens: Iterable[str], order: int) -> list[str]:
    """n-grams of the given order, joined by single spaces.

    A document shorter than ``order`` contributes no features.
    """
    toks = list(tokens)
    if order == 1:
        return toks
    return [" ".join(toks[i : i + order]) for i in range(len(toks) - order + 1)]


def _feature_counts(corpus: Corpus) -> Counter[str]:
    order = corpus.tokenizer_config.ngram_order
    counts: Counter[str] = Counter()
    for doc in corpus.documents:
        counts.update(ngram_features(doc.tokens, order))
    return counts


def _document_counts(corpus: Corpus) -> tuple[list[str], np.ndarray, np.ndarray, list[int]]:
    """Every document's n-gram counts, each document tokenized and counted once.

    Returns the corpus's distinct features in first-seen order, then
    the (document, feature) pairs of all documents laid end to end, as
    the feature's index in that list and its count in the document
    (in ``Counter`` order), and the number of pairs of each document.
    """
    order = corpus.tokenizer_config.ngram_order
    per_document = [Counter(ngram_features(doc.tokens, order)) for doc in corpus.documents]
    keys = list(chain.from_iterable(per_document))
    features = list(dict.fromkeys(keys))
    position = dict(zip(features, range(len(features))))
    at = np.fromiter(map(position.__getitem__, keys), dtype=np.intp, count=len(keys))
    weights = np.fromiter(chain.from_iterable(map(Counter.values, per_document)), dtype=np.float64, count=len(keys))
    return features, at, weights, list(map(len, per_document))


def _hashed_slots(features: Sequence[str], cfg: EmbeddingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slot and sign of each feature, from one batched hash of them all."""
    hashes = fnv1a_64_many(list(map(str.encode, features)), seed=cfg.seed)  # UTF-8
    slots, signs = slot_and_sign(hashes, cfg.dimension)
    return slots.astype(np.intp), signs


def _project(slots: np.ndarray, signed_weights: np.ndarray, dimension: int) -> np.ndarray:
    """Sum signed weights into their slots and scale the result to unit norm.

    ``np.bincount`` adds the weights one by one in array order, so with
    the features in sorted order it makes the same float64 sums as
    ``vec[slot] += sign * weight`` in a loop over them.
    """
    vec = np.bincount(slots, weights=signed_weights, minlength=dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise ComputationError("degenerate embedding: projection collapsed to the zero vector")
    return vec / norm


@dataclass(frozen=True, eq=False)
class HashedTable:
    """A frequency table ready to embed: sorted non-zero features, weights, slots, signs.

    :func:`embed_builtin` accepts one in place of the mapping, so a
    tfidf comparison embeds one source against many targets without
    re-sorting or re-hashing it.
    """

    features: list[str]
    weights: np.ndarray
    slots: np.ndarray
    signs: np.ndarray
    config: EmbeddingConfig

    @classmethod
    def of(cls, term_freq: Mapping[str, int], config: EmbeddingConfig | None = None) -> "HashedTable":
        """Sort, check and hash ``term_freq``; it fails as :func:`embed_builtin` would."""
        cfg = config or EmbeddingConfig()
        if not term_freq:
            raise ComputationError("no features: empty frequency table")
        features = sorted(term_freq)
        weights = np.fromiter(map(term_freq.__getitem__, features), dtype=np.float64, count=len(features))
        negative = weights < 0
        if negative.any():
            raise ComputationError(f"negative count for feature {features[int(np.argmax(negative))]!r}")
        nonzero = weights != 0.0
        if not nonzero.any():
            raise ComputationError("degenerate embedding: all feature weights are zero")
        features = list(compress(features, nonzero))
        slots, signs = _hashed_slots(features, cfg)
        return cls(features, weights[nonzero], slots, signs, cfg)


def embed_builtin(
    term_freq: Mapping[str, int] | HashedTable,
    config: EmbeddingConfig | None = None,
    idf_context: Collection[str] | None = None,
) -> np.ndarray:
    """Project a frequency table to a unit vector by signed feature hashing.

    Each feature lands in slot ``fnv1a_64(feature, seed) % dimension``
    with a sign from the hash's top bit. Feature order cannot affect
    the result: accumulation walks features in sorted order. With
    tfidf weighting, ``idf_context`` is the other corpus's vocabulary
    in a pairwise comparison; document frequency is then 1 or 2 and
    idf(f) = ln(2/df) + 1. Without a context the idf factor is 1.
    ``term_freq`` may be a :class:`HashedTable` prepared with ``config``.
    """
    if isinstance(term_freq, HashedTable):
        table = term_freq
        if config is not None and config != table.config:
            raise ComputationError("hashed table was prepared with a different embedding configuration")
    else:
        table = HashedTable.of(term_freq, config)
    weights = table.weights
    if table.config.weighting == "tfidf" and idf_context is not None:
        shared = np.fromiter(map(idf_context.__contains__, table.features), dtype=bool, count=len(table.features))
        # df is 2 for a feature the other corpus also has, else 1
        weights = weights * np.where(shared, math.log(2.0 / 2) + 1.0, math.log(2.0 / 1) + 1.0)
    return _project(table.slots, table.signs * weights, table.config.dimension)


def _per_document_embedding(
    features: Sequence[str], at: np.ndarray, weights: np.ndarray, sizes: Sequence[int], cfg: EmbeddingConfig
) -> np.ndarray:
    """Unit-norm mean of the documents' unit vectors, from :func:`_document_counts`.

    The corpus's distinct features are hashed once; each document then
    projects its own counts through their positions in that batch.
    """
    slots, signs = _hashed_slots(features, cfg)
    slots, signed_weights = slots[at], signs[at] * weights
    acc = np.zeros(cfg.dimension, dtype=np.float64)
    contributing = 0
    end = 0
    for size in sizes:
        start, end = end, end + size
        if not size:
            continue
        # counts are integers, so every partial sum is exact and the order
        # of accumulation cannot change the vector
        acc += _project(slots[start:end], signed_weights[start:end], cfg.dimension)
        contributing += 1
    if contributing == 0:
        raise ComputationError("no features: no document produced an embedding")
    acc /= contributing
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        raise ComputationError("degenerate embedding: per-document vectors cancelled out")
    return acc / norm


def build_profile(corpus: Corpus, config: EmbeddingConfig | None = None) -> DomainProfile:
    """Build the feature profile of a corpus with the built-in embedding."""
    cfg = config or EmbeddingConfig()
    if cfg.per_document:
        features, at, weights, sizes = _document_counts(corpus)
        totals = np.bincount(at, weights=weights, minlength=len(features))  # integer sums: exact
        counts = dict(zip(features, totals.astype(np.int64).tolist()))
    else:
        counts = _feature_counts(corpus)
    if not counts:
        raise ComputationError(f"no features: corpus {corpus.domain_id!r} has no n-grams of the configured order")
    if cfg.per_document:
        vector = _per_document_embedding(features, at, weights, sizes, cfg)
    else:
        vector = embed_builtin(counts, cfg)
    return DomainProfile(
        domain_id=corpus.domain_id,
        term_freq=dict(counts),
        embedding=vector,
        embedding_source=EmbeddingSource(kind="builtin", seed=cfg.seed, dimension=cfg.dimension),
        tokenizer_hash=corpus.tokenizer_config.config_hash(),
        embedding_hash=cfg.config_hash(),
        embedding_config=cfg,
    )


def build_profile_external(corpus: Corpus, vector: np.ndarray, path: str) -> DomainProfile:
    """Build a profile whose embedding comes from a user-supplied vector."""
    counts = _feature_counts(corpus)
    if not counts:
        raise ComputationError(f"no features: corpus {corpus.domain_id!r} has no n-grams of the configured order")
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.all(np.isfinite(v)):
        raise ComputationError(f"degenerate external vector for domain {corpus.domain_id!r}")
    v = v / norm
    source = EmbeddingSource(kind="external", dimension=int(v.size), path=path)
    return DomainProfile(
        domain_id=corpus.domain_id,
        term_freq=dict(counts),
        embedding=v,
        embedding_source=source,
        tokenizer_hash=corpus.tokenizer_config.config_hash(),
        embedding_hash=stable_hash({"kind": "external", "path": path, "dimension": int(v.size)}),
    )


def _is_existing_path(candidate: str | Path) -> bool:
    if isinstance(candidate, str) and "\n" in candidate:
        return False
    try:
        return Path(candidate).is_file()
    except OSError:
        return False


def load_external_embeddings(
    data: str | Path | bytes | IO[bytes],
    expected_domains: Collection[str] = (),
) -> dict[str, np.ndarray]:
    """Load per-domain vectors from a JSON object or a CSV table.

    JSON form: ``{"domain": [numbers...], ...}``. CSV form: header
    ``domain_id,v0,...`` with one row per domain. Vectors must share a
    dimension, be finite and nonzero; they are L2-normalized on load
    (``[3, 4]`` becomes ``[0.6, 0.8]``).
    """
    label = "<stream>"
    if isinstance(data, (str, Path)) and _is_existing_path(data):
        label = str(data)
        raw = Path(data).read_bytes()
    elif isinstance(data, bytes):
        raw = data
    elif isinstance(data, Path) or (isinstance(data, str) and "\n" not in data and "{" not in data):
        raise ConfigError(f"external embeddings file not found: {data}")
    elif isinstance(data, str):
        raw = data.encode("utf-8")
    else:
        raw = data.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("external embeddings are not valid UTF-8", offset=exc.start, source=label) from exc

    stripped = text.lstrip()
    vectors: dict[str, list[float]] = {}
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", source=label) from exc
        if not isinstance(obj, dict):
            raise ParseError("external embeddings JSON must map domain ids to vectors", source=label)
        for domain, values in obj.items():
            if not isinstance(values, list):
                raise ParseError(f"vector for domain {domain!r} is not a list", source=label)
            vectors[str(domain)] = [float(x) for x in values]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("external embeddings file is empty", source=label)
        for line_no, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) < 2:
                raise ParseError("expected domain_id followed by vector components", line=line_no, source=label)
            try:
                vectors[cells[0].strip()] = [float(c) for c in cells[1:]]
            except ValueError as exc:
                raise ParseError(f"non-numeric vector component: {exc}", line=line_no, source=label) from exc

    if not vectors:
        raise ParseError("external embeddings define no domains", source=label)
    dims = {len(v) for v in vectors.values()}
    if len(dims) != 1:
        raise ParseError(f"ragged dimensions in external embeddings: {sorted(dims)}", source=label)
    missing = sorted(set(expected_domains) - set(vectors))
    if missing:
        raise ParseError(f"external embeddings missing domains: {missing}", source=label)
    out: dict[str, np.ndarray] = {}
    for domain, values in vectors.items():
        v = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ParseError(f"non-finite component in vector for domain {domain!r}", source=label)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ParseError(f"zero vector for domain {domain!r}", source=label)
        out[domain] = v / norm
    return out


def profile_to_dict(profile: DomainProfile) -> dict[str, Any]:
    return {
        "domain_id": profile.domain_id,
        "term_freq": {k: profile.term_freq[k] for k in sorted(profile.term_freq)},
        "embedding": [float(x) for x in profile.embedding],
        "embedding_source": profile.embedding_source.to_dict(),
        "tokenizer_hash": profile.tokenizer_hash,
        "embedding_hash": profile.embedding_hash,
        "embedding_config": profile.embedding_config.to_dict() if profile.embedding_config else None,
    }


def profile_from_dict(data: dict[str, Any]) -> DomainProfile:
    try:
        emb_cfg = EmbeddingConfig.from_dict(data["embedding_config"]) if data.get("embedding_config") else None
        return DomainProfile(
            domain_id=data["domain_id"],
            term_freq={str(k): int(v) for k, v in data["term_freq"].items()},
            embedding=np.asarray(data["embedding"], dtype=np.float64),
            embedding_source=EmbeddingSource.from_dict(data["embedding_source"]),
            tokenizer_hash=data["tokenizer_hash"],
            embedding_hash=data["embedding_hash"],
            embedding_config=emb_cfg,
        )
    except KeyError as exc:
        raise ParseError(f"profile payload missing key: {exc.args[0]!r}") from exc


def profile_to_json(profile: DomainProfile) -> str:
    return json.dumps(profile_to_dict(profile), sort_keys=True, indent=2, ensure_ascii=False) + "\n"

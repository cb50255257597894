"""Domain profiles: n-gram statistics and fixed-dimension embeddings.

A profile summarizes one corpus: its n-gram frequency table plus a
single unit-norm embedding vector. Embeddings come either from the
built-in deterministic projection (signed feature hashing, so no model
download is ever needed) or from user-supplied external vectors.

A profile keeps its frequency table as two columns: ``terms``, the
distinct features in strictly ascending code-point order, and ``counts``,
the positive count of each. The table is sorted once, when the profile is
built. The projection accumulates features in that order, the cache stores
the columns as they stand, and a loaded profile's columns are checked, not
sorted again. ``term_freq`` is a read-only feature -> count view of the
columns, built on first use and never written. Under tfidf weighting, a
pair's idf factor is applied only by :meth:`HashedTable.idf_weighted`, from
a mask of the features the other corpus shares.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Collection, Iterable, Mapping, Sequence

from .corpus import Corpus
from .errors import ComputationError, ConfigError, ParseError, read_text
from .hashing import fields_from_dict, fnv1a_64_many, slot_and_sign, stable_hash
from .lazy import np

WEIGHTINGS = ("tf", "tfidf")

DEFAULT_DIMENSION = 300
DEFAULT_SEED = 42

_INT64_MAX = 2**63 - 1


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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("embedding seed must be an integer")
        if not isinstance(self.per_document, bool):
            raise ConfigError("embedding per_document must be true or false")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}; expected one of {WEIGHTINGS}")
        if self.per_document and self.weighting == "tfidf":
            # pairwise idf needs per-document counts that profiles do not keep
            raise ConfigError("per_document averaging supports tf weighting only")

    def config_hash(self) -> str:
        return stable_hash(asdict(self))


@dataclass(frozen=True, eq=False)
class DomainProfile:
    """Feature summary of one corpus.

    ``terms`` holds the corpus's distinct features in strictly ascending
    order and ``counts`` the positive count of each, in the same order.
    ``embedding`` is always unit L2 norm. ``tokenizer_hash`` and
    ``embedding_hash`` identify the configurations that produced the
    profile; two profiles are comparable only when both hashes agree.
    ``embedding_config`` is None when the vector is an external one.
    """

    domain_id: str
    terms: list[str]
    counts: list[int]
    embedding: np.ndarray
    tokenizer_hash: str
    embedding_hash: str
    embedding_config: EmbeddingConfig | None = None  # set for builtin embeddings

    def config_hash(self) -> str:
        return stable_hash({"tokenizer": self.tokenizer_hash, "embedding": self.embedding_hash})

    @cached_property
    def term_freq(self) -> Mapping[str, int]:
        """The columns as a read-only feature -> count mapping in term order, built on first use."""
        return MappingProxyType(dict(zip(self.terms, self.counts)))


def ngram_features(tokens: Iterable[str], order: int) -> list[str]:
    """n-grams of the given order, joined by single spaces.

    A document shorter than ``order`` contributes no features.
    """
    toks = list(tokens)
    if order == 1:
        return toks
    return [" ".join(toks[i : i + order]) for i in range(len(toks) - order + 1)]


def _feature_counts(corpus: Corpus) -> Counter[str]:
    order = corpus.tokenizer_config.ngram_order  # order 1: the tokens are the features, counted without a copy
    docs = corpus.documents if order == 1 else (ngram_features(tokens, order) for tokens in corpus.documents)
    return Counter(chain.from_iterable(docs))


def _columns(corpus: Corpus, counts: Mapping[str, int]) -> tuple[list[str], list[int]]:
    """``corpus``'s feature ``counts`` as a profile's two columns, sorted once; a corpus with none is refused."""
    if not counts:
        raise ComputationError(f"no features: corpus {corpus.domain_id!r} has no n-grams of the configured order")
    terms = sorted(counts)
    return terms, list(map(counts.__getitem__, terms))


def _document_counts(corpus: Corpus) -> tuple[list[str], np.ndarray, np.ndarray, list[int]]:
    """Every document's n-gram counts, each document tokenized and counted once.

    Returns the corpus's distinct features in first-seen order, then
    the (document, feature) pairs of all documents laid end to end, as
    the feature's index in that list and its count in the document
    (in ``Counter`` order), and the number of pairs of each document.
    """
    order = corpus.tokenizer_config.ngram_order
    per_document = [Counter(ngram_features(tokens, order)) for tokens in corpus.documents]
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
    """A frequency table ready to embed: sorted distinct features, their positive weights, slots and signs.

    :func:`embed_builtin` accepts one in place of the mapping, so a
    tfidf comparison embeds one source against many targets without
    re-sorting or re-hashing it.
    """

    features: list[str]
    weights: np.ndarray
    slots: np.ndarray
    signs: np.ndarray
    config: EmbeddingConfig

    def idf_weighted(self, shared: np.ndarray) -> "HashedTable":
        """This table under pairwise idf, ``shared`` marking each feature the other corpus also has.

        df is 2 for a shared feature, else 1, and idf(f) = ln(2/df) + 1.
        """
        return replace(self, weights=self.weights * np.where(shared, math.log(2.0 / 2) + 1.0, math.log(2.0 / 1) + 1.0))

    @classmethod
    def of_columns(
        cls, terms: list[str], weights: Sequence[float], config: EmbeddingConfig | None = None
    ) -> "HashedTable":
        """Hash columns as they stand: ``terms`` non-empty, strictly ascending, ``weights`` positive (a profile's)."""
        cfg = config or EmbeddingConfig()
        slots, signs = _hashed_slots(terms, cfg)
        return cls(terms, np.array(weights, dtype=np.float64), slots, signs, cfg)

    @classmethod
    def of(cls, term_freq: Mapping[str, int], config: EmbeddingConfig | None = None) -> "HashedTable":
        """Sort, check and hash ``term_freq``, dropping zero counts; it fails as :func:`embed_builtin` would."""
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
        return cls.of_columns(list(compress(features, nonzero)), weights[nonzero], config)


def embed_builtin(term_freq: Mapping[str, int] | HashedTable, config: EmbeddingConfig | None = None) -> np.ndarray:
    """Project a frequency table to a unit vector by signed feature hashing.

    Each feature lands in slot ``fnv1a_64(feature, seed) % dimension``
    with a sign from the hash's top bit. Feature order cannot affect
    the result: accumulation walks features in sorted order. The weights
    are projected as they stand, so the idf factor is 1 unless the table
    came from :meth:`HashedTable.idf_weighted`.
    ``term_freq`` may be a :class:`HashedTable` prepared with ``config``.
    """
    if isinstance(term_freq, HashedTable):
        table = term_freq
        if config is not None and config != table.config:
            raise ComputationError("hashed table was prepared with a different embedding configuration")
    else:
        table = HashedTable.of(term_freq, config)
    return _project(table.slots, table.signs * table.weights, table.config.dimension)


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
        terms, counts = _columns(corpus, dict(zip(features, totals.astype(np.int64).tolist())))
        vector = _per_document_embedding(features, at, weights, sizes, cfg)
    else:
        terms, counts = _columns(corpus, _feature_counts(corpus))
        vector = embed_builtin(HashedTable.of_columns(terms, counts, cfg))
    return DomainProfile(
        domain_id=corpus.domain_id,
        terms=terms,
        counts=counts,
        embedding=vector,
        tokenizer_hash=corpus.tokenizer_config.config_hash(),
        embedding_hash=cfg.config_hash(),
        embedding_config=cfg,
    )


def build_profile_external(corpus: Corpus, vector: np.ndarray, path: str) -> DomainProfile:
    """Build a profile whose embedding comes from a user-supplied vector."""
    terms, counts = _columns(corpus, _feature_counts(corpus))
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.all(np.isfinite(v)):
        raise ComputationError(f"degenerate external vector for domain {corpus.domain_id!r}")
    v = v / norm
    return DomainProfile(
        domain_id=corpus.domain_id,
        terms=terms,
        counts=counts,
        embedding=v,
        tokenizer_hash=corpus.tokenizer_config.config_hash(),
        embedding_hash=stable_hash({"kind": "external", "path": path, "dimension": int(v.size)}),
    )


def load_external_embeddings(
    data: str | Path | bytes | IO[bytes],
    expected_domains: Collection[str] = (),
) -> dict[str, np.ndarray]:
    """Load per-domain vectors from a JSON object or a CSV table.

    JSON form: ``{"domain": [numbers...], ...}``. CSV form: header
    ``domain_id,v0,...`` with one row per domain. Vectors must share a
    dimension, be finite and nonzero; they are L2-normalized on load
    (``[3, 4]`` becomes ``[0.6, 0.8]``). A :class:`~pathlib.Path` names
    the file to read; a ``str``, ``bytes`` or binary stream is the content.
    """
    text, label = read_text(data, "external embeddings")
    stripped = text.lstrip()
    vectors: dict[str, list[float]] = {}
    if stripped.startswith("{"):
        objects: list[list[tuple[str, Any]]] = []

        def keep_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
            objects.append(pairs)
            return dict(pairs)

        try:
            json.loads(text, object_pairs_hook=keep_pairs)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", source=label) from exc
        for domain, values in objects[-1]:  # the top-level object: it closes last
            if not (isinstance(values, list) and all(type(x) in (int, float) for x in values)):
                raise ParseError(f"vector for domain {domain!r} is not a list of numbers", source=label)
            if domain in vectors:
                raise ParseError(f"domain {domain!r} given twice", source=label)
            try:
                vectors[domain] = [float(x) for x in values]
            except OverflowError:  # an integer beyond float64's range
                raise ParseError(f"non-finite component in vector for domain {domain!r}", source=label) from None
    else:
        lines = [(line_no, ln) for line_no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines:
            raise ParseError("external embeddings file is empty", source=label)
        for line_no, line in lines[1:]:  # after the header
            cells = line.split(",")
            if len(cells) < 2:
                raise ParseError("expected domain_id followed by vector components", line=line_no, source=label)
            domain = cells[0].strip()
            if domain in vectors:
                raise ParseError(f"domain {domain!r} given twice", line=line_no, source=label)
            try:
                vectors[domain] = [float(c) for c in cells[1:]]
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
        "terms": list(profile.terms),
        "counts": list(profile.counts),
        "embedding": [float(x) for x in profile.embedding],
        "tokenizer_hash": profile.tokenizer_hash,
        "embedding_hash": profile.embedding_hash,
        "embedding_config": asdict(profile.embedding_config) if profile.embedding_config else None,
    }


def _columns_from(terms: Any, counts: Any) -> tuple[list[str], list[int]]:
    """Stored columns: ``terms`` strings in strictly ascending order, ``counts`` one positive int64 per term.

    Copies are returned: the profile never aliases the caller's payload.
    """
    if not (isinstance(terms, list) and set(map(type, terms)) <= {str}):
        raise ParseError("profile terms must be a list of strings")
    if not isinstance(counts, list):
        raise ParseError("profile counts must be a list of integers")
    if len(counts) != len(terms):
        raise ParseError(f"profile counts must hold one count per term: {len(counts)} counts for {len(terms)} terms")
    if not all(map(operator.lt, terms, islice(terms, 1, None))):
        i = next(i for i in range(1, len(terms)) if not terms[i - 1] < terms[i])
        raise ParseError(f"profile terms must be strictly ascending: {terms[i]!r} follows {terms[i - 1]!r}")
    if counts and not (set(map(type, counts)) <= {int} and min(counts) > 0 and max(counts) <= _INT64_MAX):
        term, count = next((t, c) for t, c in zip(terms, counts) if type(c) is not int or not 0 < c <= _INT64_MAX)
        raise ParseError(f"profile counts entry for term {term!r} is not a positive 64-bit integer: {count!r}")
    return list(terms), list(counts)


def _embedding_from(value: Any) -> np.ndarray:
    """A stored embedding: a list of finite numbers."""
    corrupt = ParseError("profile embedding must be a list of finite numbers")
    if not (isinstance(value, list) and set(map(type, value)) <= {int, float}):
        raise corrupt
    try:
        vector = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        raise corrupt from None
    if not np.isfinite(vector).all():
        raise corrupt
    return vector


def _hash_from(value: Any, name: str) -> str:
    """Stored hash ``name``: a string."""
    if not isinstance(value, str):
        raise ParseError(f"profile {name} must be a string")
    return value


def _embedding_config_from(value: Any, embedding_hash: str) -> EmbeddingConfig | None:
    """A stored embedding config: null for external vectors, else an object that hashes to ``embedding_hash``."""
    if value is None:
        return None
    try:
        cfg = fields_from_dict(EmbeddingConfig, value, "embedding")
    except ConfigError as exc:  # not an object, or an unknown, missing or invalid field
        raise ParseError(f"profile embedding_config is malformed: {exc}") from exc
    if cfg.config_hash() != embedding_hash:
        raise ParseError("profile embedding_config does not hash to its embedding_hash")
    return cfg


def profile_from_dict(data: dict[str, Any]) -> DomainProfile:
    """Rebuild a profile from :func:`profile_to_dict`'s form; a malformed payload is a ParseError."""
    try:
        terms, counts = _columns_from(data["terms"], data["counts"])
        return DomainProfile(
            domain_id=data["domain_id"],
            terms=terms,
            counts=counts,
            embedding=_embedding_from(data["embedding"]),
            tokenizer_hash=_hash_from(data["tokenizer_hash"], "tokenizer_hash"),
            embedding_hash=_hash_from(data["embedding_hash"], "embedding_hash"),
            embedding_config=_embedding_config_from(data["embedding_config"], data["embedding_hash"]),  # a str here
        )
    except KeyError as exc:
        raise ParseError(f"profile payload missing key: {exc.args[0]!r}") from exc

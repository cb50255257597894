"""Command-line pipeline: ingest, similarity, transport, fit, predict, report.

Stages communicate only through files in the output directory, so any
stage can be rerun in isolation. One table, :data:`STAGES`, lists for
each stage the config blocks its outputs depend on and the files it
reads. All outputs are deterministic: no timestamps, stable key order,
and every artifact embeds the tool version and its stage's hash, which
covers the stage's config blocks and the hashes of the stages it reads
from. An artifact written under flag overrides records them. A stage
refuses an input artifact of another tool version, or whose hash is not
the one that the current config, with those overrides, gives. So any
change to a stored layout, hash or key bumps ``__version__``: the files
of another version then miss and are refused, and no code migrates them.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import functools
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from fnmatch import fnmatchcase
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from . import __version__
from .corpus import Corpus, TokenizerConfig, parse_conll, parse_interchange, parse_jsonl_pairs, parse_plaintext
from .divergence import CSV_COLUMNS, KLSettings, similarity_table
from .errors import (
    ComputationError,
    ConfigError,
    ParseError,
    encodes_as_utf8,
    may_hold_surrogates,
    read_file,
    read_text,
)
from .features import (
    DomainProfile,
    EmbeddingConfig,
    build_profile,
    build_profile_external,
    load_external_embeddings,
    profile_from_dict,
    profile_to_dict,
)
from .hashing import canonical_json, content_digest, dump_json, fields_from_dict, stable_hash
from .hashing import fnv1a_64  # noqa: F401  no hash here calls it; bench/tracing.py wraps it by name
from .regression import FitLog, FitModel, curve_points, fit as fit_curve, predict
from .transport import (
    PERCENT_METRICS,
    ScoreTable,
    build_report,
    load_score_table,
    render_report_text,
)

PREDICTOR_COLUMNS = {
    "lexical": "lexical_difference",
    "cosine": "cosine_distance",
    "kl": "kl_divergence",
}

CORPUS_FORMATS = ("conll", "jsonl", "text", "interchange")


# ---------------------------------------------------------------- config


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_unique(values: Sequence[Any], what: str) -> None:
    for i, value in enumerate(values):
        _require(value not in values[:i], f"duplicate {what} {value!r}")


def _strings(value: Any, message: str) -> tuple[str, ...] | None:
    """``value``, None or a list of strings, as None or a tuple; anything else is ConfigError ``message``."""
    _require(value is None or isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value), message)
    return None if value is None else tuple(value)


def _name(value: Any, what: str) -> str:
    """A name or join key: a string, or a number as its text (a score table's text of it); nothing else."""
    _require(type(value) in (str, int, float), f"{what} must be a string or a number")
    return str(value)


def _normalize(record: Any, **values: Any) -> None:
    """Set fields of a frozen config record in its ``__post_init__``, which ``replace`` reruns on these values."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _key_pair(obj: Any, context: str, *extra: str) -> tuple[str, str]:
    """A (dataset, split) key from a two-item list or an object with those keys (and ``extra`` ones)."""
    if isinstance(obj, dict):
        unknown = set(obj) - {"dataset", "split", *extra}
        _require(not unknown, f"unknown {context} fields: {sorted(unknown)}")
        _require("dataset" in obj and "split" in obj, f"{context} needs 'dataset' and 'split'")
        return _name(obj["dataset"], f"{context}.dataset"), _name(obj["split"], f"{context}.split")
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return _name(obj[0], f"{context}[0]"), _name(obj[1], f"{context}[1]")
    raise ConfigError(f"{context} must be a dataset/split pair")


@dataclass(frozen=True)
class CorpusSpec:
    domain_id: str
    path: str
    format: str
    fields: tuple[str, ...] | None = None  # jsonl text fields
    text_unit: str = "line"  # plaintext document unit
    dataset: str | None = None  # join keys into the score table
    split: str | None = None

    def __post_init__(self) -> None:
        keys = [key for key in ("dataset", "split") if getattr(self, key) is not None]  # join keys; null: none
        names = {key: _name(getattr(self, key), key) for key in ("domain_id", "path", "format", "text_unit", *keys)}
        _require(names["format"] in CORPUS_FORMATS,
                 f"unknown format {names['format']!r}; expected one of {CORPUS_FORMATS}")
        _normalize(self, **names, fields=_strings(self.fields, "fields must be a list of strings"))


@dataclass(frozen=True)
class ScoresSpec:
    path: str | None = None
    metric: str = "F1"

    def __post_init__(self) -> None:
        _require(self.path is None or isinstance(self.path, str), "scores.path must be a path or null")
        _normalize(self, metric=_name(self.metric, "scores.metric"))


@dataclass(frozen=True)
class TransportSpec:
    """The transport block; ``groups`` collects the targets' ``group`` labels and is not a key."""

    task: str
    source: tuple[str, str]
    targets: tuple[tuple[str, str], ...]
    systems: tuple[str, ...] | None = None
    bias_corrected: bool = False
    groups: Mapping[str, tuple[tuple[str, str], ...]] = field(default_factory=dict, metadata={"derived": True})

    def __post_init__(self) -> None:
        _require(isinstance(self.task, str), "transport.task must be a string")
        _require(isinstance(self.bias_corrected, bool), "transport.bias_corrected must be true or false")
        _require(isinstance(self.targets, (list, tuple)), "transport.targets must be a list")
        targets = [_key_pair(t, f"transport.targets[{j}]", "group") for j, t in enumerate(self.targets)]
        _require(len(targets) > 0, "transport.targets must be non-empty")
        _require_unique(targets, "transport target")
        systems = _strings(self.systems, "transport.systems must be a list of strings")
        _require_unique(systems or (), "system")
        groups = {name: list(keys) for name, keys in self.groups.items()}  # set when replace() copies a spec
        for j, (key, t) in enumerate(zip(targets, self.targets)):
            if isinstance(t, dict) and t.get("group") is not None:
                groups.setdefault(_name(t["group"], f"transport.targets[{j}].group"), []).append(key)
        _normalize(self, source=_key_pair(self.source, "transport.source"), targets=tuple(targets), systems=systems,
                   groups={name: tuple(keys) for name, keys in groups.items()})


@dataclass(frozen=True)
class SimilaritySpec:
    source: str | None = None  # None: the first corpus
    targets: tuple[str, ...] | None = None  # None: every corpus

    def __post_init__(self) -> None:
        targets = _strings(self.targets, "similarity.targets must be a list of domain ids")
        _require_unique(targets or (), "similarity target")
        _normalize(self, targets=targets)


@dataclass(frozen=True)
class FitSpec:
    predictors: tuple[str, ...] = tuple(PREDICTOR_COLUMNS)

    def __post_init__(self) -> None:
        _require(isinstance(self.predictors, (list, tuple)) and len(self.predictors) > 0,
                 "fit.predictors must be a non-empty list")
        for pred in self.predictors:
            _require(isinstance(pred, str) and pred in PREDICTOR_COLUMNS,
                     f"unknown predictor {pred!r}; expected one of {sorted(PREDICTOR_COLUMNS)}")
        _require_unique(self.predictors, "predictor")
        _normalize(self, predictors=tuple(self.predictors))


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration for one pipeline run: one field per top-level config key, plus ``config_dir``.

    No stage hash covers ``out_dir`` (or ``config_dir``): the same
    analysis written to two directories is the same analysis.
    """

    config_dir: Path
    out_dir: str = "out"
    tokenizer: TokenizerConfig = TokenizerConfig()
    embedding: EmbeddingConfig = EmbeddingConfig()
    kl: KLSettings = KLSettings()
    corpora: tuple[CorpusSpec, ...] = ()
    external_embeddings: str | None = None
    scores: ScoresSpec = ScoresSpec()
    transport: TransportSpec | None = None
    similarity: SimilaritySpec = SimilaritySpec()
    fit: FitSpec = FitSpec()

    def __post_init__(self) -> None:
        _require(isinstance(self.out_dir, str), "out_dir must be a path")
        _require(self.external_embeddings is None or isinstance(self.external_embeddings, str),
                 "external_embeddings must be a path or null")
        ids = [c.domain_id for c in self.corpora]
        _require_unique(ids, "domain_id")
        _require_distinct_slugs(ids, "domain ids")

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.config_dir / p

    @property
    def out_path(self) -> Path:
        return self.resolve(self.out_dir)


_BLOCKS = {"tokenizer": TokenizerConfig, "embedding": EmbeddingConfig, "kl": KLSettings, "scores": ScoresSpec,
           "transport": TransportSpec, "similarity": SimilaritySpec, "fit": FitSpec}


def _corpus(i: int, item: Any) -> CorpusSpec:
    try:
        return fields_from_dict(CorpusSpec, item, "corpus")
    except ConfigError as exc:
        raise ConfigError(f"corpora[{i}]: {exc}") from None


def _lone_surrogate(value: Any) -> str | None:
    """The first string in JSON value ``value``, keys included, that holds a lone surrogate; None if none does."""
    if isinstance(value, str):
        return None if encodes_as_utf8(value) else value
    if isinstance(value, dict):
        value = chain.from_iterable(value.items())
    elif not isinstance(value, list):
        return None
    return next(filter(None, map(_lone_surrogate, value)), None)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = read_text(p, "config")[0]
        raw = json.loads(text)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    bad = _lone_surrogate(raw) if may_hold_surrogates(text) else None
    _require(bad is None, f"config string {bad!r} holds a lone surrogate, which is not valid UTF-8")
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig) if f.name != "config_dir"}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    if raw.get("transport") is None:
        raw.pop("transport", None)  # null: no transport block
    corpora = raw.get("corpora", [])
    _require(isinstance(corpora, list), "corpora must be a list")
    return RunConfig(
        config_dir=p.parent.resolve(),
        out_dir=raw.get("out_dir", "out"),
        corpora=tuple(_corpus(i, item) for i, item in enumerate(corpora)),
        external_embeddings=raw.get("external_embeddings"),
        **{key: fields_from_dict(cls, raw[key], key) for key, cls in _BLOCKS.items() if key in raw},
    )


# ---------------------------------------------------------------- io helpers


@contextmanager
def _run_lock(out_dir: Path) -> Iterator[None]:
    """Advisory lock guarding concurrent runs on one output directory.

    A run holds ``flock`` on ``out_dir/.lock``, which the kernel releases
    when the run's process ends, however it ends: a ``.lock`` that a dead
    run left behind blocks nothing. The file is removed on exit.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / ".lock"
    while True:
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigError(f"output directory is locked by another run: {lock_path}") from None
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock_path)):
                break
        except FileNotFoundError:
            pass
        # the run that held the lock removed the file we opened: lock the path afresh
        os.close(fd)
    try:
        yield
    finally:
        try:
            lock_path.unlink(missing_ok=True)  # while still held, so no other run locks the removed file
        finally:
            os.close(fd)


def _write_text(path: Path, text: str) -> bytes:
    """Write ``text`` to ``path`` as UTF-8 and return the bytes written.

    The bytes go to a temporary file in the same directory that then
    replaces ``path``, so a failed write leaves the old file intact and no
    temporary file behind. An OS error that names no file (a full disk)
    is given ``path``, so its message says which write failed.
    """
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # the run lock keeps the name unique
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror is not None and exc.filename is None:
            exc.filename = str(path)
        raise
    return data


def _artifact(config_hash: str, overrides: Mapping[str, Any], **payload: Any) -> dict[str, Any]:
    """A JSON artifact: ``payload`` stamped with its stage's hash, the flag overrides behind it and the tool version."""
    lineage = {"overrides": overrides} if overrides else {}
    return {"config_hash": config_hash, **lineage, "tool_version": __version__, **payload}


def _cache_text(obj: Any) -> str:
    """The text of a file under ``cache/``, which only the program reads: canonical JSON and a newline."""
    return canonical_json(obj) + "\n"


def _csv_text(config_hash: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """RFC-4180 CSV text under a comment line with its stage's hash and the tool version."""
    buf = io.StringIO()
    buf.write(f"#config_hash={config_hash},tool_version={__version__}\r\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- stage table


class _Stage(NamedTuple):
    blocks: tuple[str, ...]  # the config blocks the stage's outputs depend on
    reads: Mapping[str, str | None]  # file -> the stage that writes it; "scores" (the score table) -> None
    writes: tuple[str, ...]  # the names or patterns of the files the stage owns, its stamp included


STAGES = {
    "ingest": _Stage(("tokenizer", "embedding", "external_embeddings"), {},
                     ("cache/stage-ingest.json", "cache/profile-*.json")),
    "similarity": _Stage(("kl", "similarity", "corpora"), {"cache/profile-*.json": "ingest"},
                         ("cache/stage-similarity.json", "similarity.csv", "similarity.json")),
    "transport": _Stage(("scores", "transport"), {"scores": None},
                        ("cache/stage-transport.json", "transport.json", "transport.txt")),
    "fit": _Stage(("scores", "transport", "fit", "corpora"), {"similarity.json": "similarity", "scores": None},
                  ("cache/stage-fit.json", "fit-*.json", "curve-*.csv", "plot-*.csv", "fit_summary.json")),
    "report": _Stage(("fit", "transport"),
                     {"similarity.json": "similarity", "transport.json": "transport", "fit_summary.json": "fit"},
                     ("cache/stage-report.json", "report.json", "report.txt")),
}

Overrides = Mapping[str, Mapping[str, Any]]  # flag values by config block and field


def _record_fields(record: Any) -> dict[str, Any]:
    """A config record as its fields, for hashing; ``fields`` refuses any other object."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


class _Hashes(dict):
    """Stage name -> the hash that ``cfg`` gives the stage, computed on first use.

    A stage's hash covers its config blocks and the hashes of the stages
    that write what it reads. Each block is hashed at most once.
    """

    def __init__(self, cfg: RunConfig, blocks: Mapping[str, str] = {}) -> None:
        super().__init__()
        self.cfg = cfg
        self.blocks = dict(blocks)

    def block(self, name: str) -> str:
        if name not in self.blocks:
            unused = name == "embedding" and self.cfg.external_embeddings  # external vectors replace the projection
            self.blocks[name] = stable_hash(None if unused else getattr(self.cfg, name), default=_record_fields)
        return self.blocks[name]

    def __missing__(self, stage: str) -> str:
        row = STAGES[stage]
        upstream = sorted({writer for writer in row.reads.values() if writer})
        self[stage] = stable_hash({"stage": stage, "blocks": {b: self.block(b) for b in row.blocks},
                                   "reads": {s: self[s] for s in upstream}})
        return self[stage]

    def corpus(self, spec: CorpusSpec) -> str:
        """The hash a profile of ``spec`` carries: the ingest hash and the corpus's parse settings."""
        parse = {"format": spec.format, "fields": spec.fields, "text_unit": spec.text_unit}
        return stable_hash({"ingest": self["ingest"], **parse})

    def under(self, overrides: Overrides) -> _Hashes:
        """The hashes of ``cfg`` with flag ``overrides`` applied."""
        if not overrides:
            return self
        changes = {name: replace(getattr(self.cfg, name), **values) for name, values in overrides.items()}
        return _Hashes(replace(self.cfg, **changes), {b: h for b, h in self.blocks.items() if b not in changes})


class _Run:
    """One run of a stamped stage: its inputs, its stamp and its outputs.

    Each file the stage's row reads is read once, before the stamp check,
    which looks at bytes alone: only the stage's work parses an input, on a
    miss. The stamp ``cache/stage-<stage>.json`` holds a key (the stage, the
    tool version, the stage's hash, the files it writes, the flags,
    ``allow_partial`` and the digest of every input) and the digest of each
    output; ``ingest``'s also holds each profile's source key, what it was
    built from (see :meth:`reuse`). Only :meth:`finish` replaces the stamp,
    after removing the outputs it named that the rerun did not keep and
    that the stage writes: a failed rerun leaves it in place.
    An input artifact is stale unless its ``tool_version`` is this one and
    its ``config_hash`` is the one the current config, with the flag
    overrides the artifact records, gives the stage that wrote it. The
    outputs record those overrides and the run's flags, and carry the hash
    under them.
    """

    def __init__(self, stage: str, cfg: RunConfig, flags: Overrides, allow_partial: bool) -> None:
        self.stage, self.cfg, self.out = stage, cfg, cfg.out_path
        self.path = self.out / "cache" / f"stage-{stage}.json"
        self.hashes = _Hashes(cfg)
        self.overrides = {block: dict(values) for block, values in flags.items()}  # grows by the inputs' overrides
        self.inputs: dict[str, bytes] = {}  # name -> bytes, until handed out
        self._specs: dict[str, CorpusSpec] = {}  # profile -> its corpus
        self._lineage: dict[str, Overrides] = {}  # writer -> the overrides its artifacts record
        self._digests: dict[str, str] = {}
        self._outputs: dict[str, str] = {}
        self._sources: dict[str, str] = {}  # output -> its source key, for outputs kept or rebuilt one by one
        names: list[str] = []  # the artifacts the stage reads
        for name in STAGES[stage].reads:
            if name == "scores":
                _require(cfg.scores.path is not None, "no score table configured (scores.path)")
                path = cfg.resolve(cfg.scores.path)
                self.inputs[name] = read_file(path, f"score table file not found: {path}")
                self._digests[name] = content_digest(self.inputs[name])
            elif name == "cache/profile-*.json":
                specs = {c.domain_id: c for c in cfg.corpora}
                self._specs = {_profile_name(d): specs[d] for d in _similarity_domains(cfg)}
                names += self._specs
            else:
                names.append(name)
        for name in names:
            if (self.out / name).is_file():
                self.inputs[name] = (self.out / name).read_bytes()
                self._digests[name] = content_digest(self.inputs[name])
        missing = [self._missing(name) for name in names if name not in self.inputs]
        _require(not missing or allow_partial, "missing stage outputs: " + "; ".join(missing))
        self.key = stable_hash({"stage": stage, "tool_version": __version__, "config_hash": self.hashes[stage],
                                "writes": STAGES[stage].writes, "flags": flags, "allow_partial": allow_partial,
                                "inputs": self._digests})

    def _writer(self, name: str) -> str:
        """The stage that writes input ``name``: the one of the first row entry whose name or pattern matches."""
        return next(writer for pattern, writer in STAGES[self.stage].reads.items() if fnmatchcase(name, pattern))

    def _missing(self, name: str) -> str:
        return f"{name} (run the {self._writer(name)} stage first)"

    def artifact(self, name: str, absent: Any = None) -> Any:
        """Input artifact ``name`` parsed, without its stamp fields, or ``absent`` if it is missing.

        A missing artifact with no ``absent`` value, and a stale one, are refused.
        """
        if name not in self.inputs:
            _require(absent is not None, "missing stage outputs: " + self._missing(name))
            return absent
        payload = _parse_artifact(self.inputs.pop(name), self.out / name)
        writer, spec = self._writer(name), self._specs.get(name)
        config_hash = payload.pop("config_hash", None)
        overrides = payload.pop("overrides", None) or {}
        version = payload.pop("tool_version", None)
        if version != __version__:
            raise ConfigError(f"stale: rerun {writer} ({name} is from tool version {version!r})")
        stale = ConfigError(f"stale: rerun {writer} ({name} has other settings)")
        try:
            hashes = self.hashes.under(overrides)
        except (AttributeError, TypeError, ConfigError):  # overrides that do not apply to this config
            raise stale from None
        if config_hash != (hashes.corpus(spec) if spec else hashes[writer]):
            raise stale
        if self._lineage.setdefault(writer, overrides) != overrides:  # the artifacts of one stage must agree
            raise stale
        for block, values in overrides.items():  # the run's own flags, merged first, keep their values
            self.overrides[block] = {**values, **self.overrides.get(block, {})}
        return payload

    @functools.cached_property
    def hash(self) -> str:
        """The hash the outputs carry; read it only after the inputs are parsed."""
        return self.hashes.under(self.overrides)[self.stage]

    def score_table(self) -> ScoreTable:
        path = self.cfg.resolve(self.cfg.scores.path)
        # decoded first, so the bytes are freed before the parse
        text, label = read_text(self.inputs.pop("scores"), "score table", str(path))
        return load_score_table(text, metric_name=self.cfg.scores.metric, source=label)

    @functools.cached_property
    def _stamp(self) -> tuple[Any, dict[str, Any], dict[str, Any]]:
        """The key, outputs and sources of the last success's stamp; (None, {}, {}) if unreadable or malformed."""
        try:
            stamp = json.loads(self.path.read_bytes())
            return stamp["key"], {**stamp["outputs"]}, {**stamp.get("sources", {})}
        except (OSError, ValueError, LookupError, TypeError):
            return None, {}, {}

    def _intact(self, name: str, digest: Any) -> bool:
        """True when output ``name`` still has ``digest``; False when it is gone or no file can have the name."""
        try:
            return content_digest((self.out / name).read_bytes()) == digest
        except (OSError, ValueError):
            return False

    def up_to_date(self) -> bool:
        """True when the stamp holds the run's key and every output it names still has its digest."""
        key, outputs, _ = self._stamp
        return key == self.key and all(self._intact(n, d) for n, d in outputs.items())

    def reuse(self, name: str, source: str) -> bool:
        """Keep output ``name`` if the stamp has the run's key and ``source`` for it and the file still has its digest.

        The file is read and digested, not parsed: a profile edited since it was written is rebuilt.
        """
        key, outputs, sources = self._stamp
        if key != self.key or sources.get(name) != source or not self._intact(name, outputs.get(name)):
            return False
        self._outputs[name], self._sources[name] = outputs[name], source
        return True

    def write(self, name: str, text: str, source: str | None = None) -> None:
        """Write output ``name`` under the output directory and record its digest, and its source key if given."""
        self._outputs[name] = content_digest(_write_text(self.out / name, text))
        if source is not None:
            self._sources[name] = source

    def write_json(self, name: str, **payload: Any) -> None:
        """Write JSON artifact ``name`` with the run's hash and overrides."""
        self.write(name, dump_json(_artifact(self.hash, self.overrides, **payload)))

    def finish(self) -> None:
        """Remove the earlier outputs not kept, then write the stamp if it changed.

        A stamp is outside input, so only names that the stage writes, inside the output directory, are removed.
        """
        out, writes = self.out.resolve(), STAGES[self.stage].writes
        for name in set(self._stamp[1]) - set(self._outputs):
            path = (self.out / name).resolve()
            if any(fnmatchcase(name, p) for p in writes) and path.is_relative_to(out) and path.is_file():
                path.unlink()
        if self._stamp != (self.key, self._outputs, self._sources):
            sources = {"sources": self._sources} if self._sources else {}
            _write_text(self.path, _cache_text({"key": self.key, "outputs": self._outputs, **sources}))


def _stage(work: Callable[[RunConfig, _Run], None]) -> Callable[..., None]:
    """``cmd_<stage>`` of a stage that reruns whole: ``work`` runs only on a stamp miss (``ingest`` runs per corpus)."""
    stage = work.__name__.removeprefix("cmd_")

    @functools.wraps(work)
    def cmd(cfg: RunConfig, flags: Overrides, allow_partial: bool = False) -> None:
        run = _Run(stage, cfg, flags, allow_partial)
        if run.up_to_date():
            print(f"{stage}: up to date")
        else:
            work(cfg, run)
            run.finish()

    return cmd


# on str patterns \w is exactly str.isalnum() plus "_"
_UNSLUGGED = re.compile(r"[^\w.-]")


def _slug(name: str) -> str:
    """``name`` with every character but letters, digits and ``._-`` replaced by ``-``; ``x`` for an empty name."""
    return _UNSLUGGED.sub("-", name) or "x"


def _require_distinct_slugs(names: Iterable[str], kind: str) -> None:
    """Refuse two different names that would share an artifact file name."""
    by_slug: dict[str, str] = {}
    for name in names:
        other = by_slug.setdefault(_slug(name), name)
        _require(other == name, f"{kind} {other!r} and {name!r} map to the same file name {_slug(name)!r}")


def _parse_artifact(raw: bytes, path: Path) -> dict[str, Any]:
    """The JSON object that ``raw``, the bytes of artifact ``path``, holds."""
    text = read_text(raw, f"artifact {path.name}", str(path))[0]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupt artifact {path.name}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"corrupt artifact {path.name}: expected a JSON object")
    if may_hold_surrogates(text) and _lone_surrogate(payload) is not None:
        raise ParseError(f"corrupt artifact {path.name}: a string holds a lone surrogate, which is not valid UTF-8")
    return payload


def _profile_name(domain_id: str) -> str:
    return f"cache/profile-{_slug(domain_id)}.json"


# ---------------------------------------------------------------- stages


def _parse_corpus_spec(cfg: RunConfig, spec: CorpusSpec, raw: bytes) -> Corpus:
    """Parse the bytes of ``spec``'s corpus file with its format's parser."""
    if spec.format == "conll":
        return parse_conll(raw, cfg.tokenizer, domain_id=spec.domain_id, source=spec.path)
    if spec.format == "jsonl":
        fields = spec.fields or ("sentence1", "sentence2")
        return parse_jsonl_pairs(raw, cfg.tokenizer, fields=fields, domain_id=spec.domain_id, source=spec.path)
    if spec.format == "text":
        return parse_plaintext(raw, cfg.tokenizer, unit=spec.text_unit, domain_id=spec.domain_id, source=spec.path)
    return replace(parse_interchange(raw, source=spec.path), domain_id=spec.domain_id)  # the config names the domain


def cmd_ingest(cfg: RunConfig, flags: Overrides) -> None:
    _require(len(cfg.corpora) > 0, "no corpora configured; nothing to ingest")
    run = _Run("ingest", cfg, flags, allow_partial=False)
    ids = [c.domain_id for c in cfg.corpora]
    external = load_external_embeddings(cfg.resolve(cfg.external_embeddings), ids) if cfg.external_embeddings else None

    failures: list[tuple[str, Exception]] = []
    for spec in cfg.corpora:
        try:
            raw = read_file(cfg.resolve(spec.path), f"corpus file not found: {spec.path}")
            name, config_hash = _profile_name(spec.domain_id), run.hashes.corpus(spec)
            source = stable_hash({"domain_id": spec.domain_id, "config_hash": config_hash,
                                  "input": content_digest(raw),  # the one read of this file: hashed, parsed on a miss
                                  "vector": content_digest(external[spec.domain_id].tobytes()) if external else None})
            if run.reuse(name, source):
                print(f"cache hit: {spec.domain_id}")
                continue
            corpus = _parse_corpus_spec(cfg, spec, raw)
            del raw  # the file's bytes need not stay alive while the profile is built and written
            if external is not None:
                profile = build_profile_external(corpus, external[spec.domain_id], cfg.external_embeddings)
            else:
                profile = build_profile(corpus, cfg.embedding)
            run.write(name, _cache_text(_artifact(config_hash, flags, profile=profile_to_dict(profile))), source)
            print(f"ingested: {spec.domain_id} ({len(corpus.documents)} documents, {corpus.token_count} tokens)")
        except (ConfigError, ParseError, ComputationError) as exc:
            failures.append((spec.domain_id, exc))
            print(f"failed: {spec.domain_id}: {exc}", file=sys.stderr)

    run.finish()  # also after a failure: the profiles of failed and removed corpora go
    if failures:
        error = next((kind for kind in (ConfigError, ComputationError)
                      if all(isinstance(e, kind) for _, e in failures)), ParseError)
        raise error("ingest failed for: " + ", ".join(d for d, _ in failures))


def _similarity_domains(cfg: RunConfig) -> list[str]:
    """The similarity source's domain id, then its targets'."""
    _require(len(cfg.corpora) > 0, "no corpora configured")
    ids = [c.domain_id for c in cfg.corpora]
    domains = [cfg.similarity.source or ids[0], *(ids if cfg.similarity.targets is None else cfg.similarity.targets)]
    for d in domains:
        _require(d in ids, f"similarity references unknown domain {d!r}")
    return domains


@_stage
def cmd_similarity(cfg: RunConfig, run: _Run) -> None:
    source_id, *target_ids = _similarity_domains(cfg)
    profiles: dict[str, DomainProfile] = {}
    for d in dict.fromkeys([source_id, *target_ids]):  # each profile is parsed, and its bytes dropped, in turn
        payload = run.artifact(_profile_name(d))
        if not isinstance(payload.get("profile"), dict):
            raise ParseError(f"corrupt profile artifact for domain {d!r}")
        profiles[d] = profile_from_dict(payload.pop("profile"))  # popped: the parsed JSON dies with the call
        if profiles[d].domain_id != d:
            raise ParseError(f"corrupt profile artifact for domain {d!r}: it holds domain {profiles[d].domain_id!r}")
    records = similarity_table(profiles[source_id], [profiles[t] for t in target_ids], cfg.kl)

    rows = [[r.source_id, r.target_id, *(repr(getattr(r, c)) for c in CSV_COLUMNS[2:])] for r in records]
    run.write("similarity.csv", _csv_text(run.hash, CSV_COLUMNS, rows))
    run.write_json("similarity.json", records=[asdict(r) for r in records])
    print(f"similarity: {len(records)} record(s) from {source_id!r}")


def _group_order(cfg: RunConfig) -> list[str] | None:
    """Group columns of the transport table in config order; None sorts them."""
    return list(cfg.transport.groups) if cfg.transport is not None and cfg.transport.groups else None


@_stage
def cmd_transport(cfg: RunConfig, run: _Run) -> None:
    _require(cfg.transport is not None, "no transport block configured")
    spec = cfg.transport
    table = run.score_table()
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require(len(systems) > 0, f"score table has no systems for task {spec.task!r}")

    reports = [build_report(table, system, spec.task, spec.source, spec.targets,
                            bias_corrected=spec.bias_corrected, groups=spec.groups or None) for system in systems]
    run.write_json("transport.json", reports=reports)
    text = render_report_text(reports, group_order=_group_order(cfg))
    header = f"# task={spec.task} metric={table.metric_name}\n# config_hash={run.hash} tool_version={__version__}\n"
    run.write("transport.txt", header + text)
    print(f"transport: {len(reports)} system report(s)")


def _join_points(
    by_domain: Mapping[str, CorpusSpec],
    records: Sequence[dict[str, Any]],
    table: ScoreTable,
    system: str,
    task: str,
    predictor_column: str,
) -> list[tuple[float, float]]:
    """Join similarity records to scores: x from the record, y from the table."""
    points: list[tuple[float, float]] = []
    for rec in records:
        spec = by_domain.get(rec["target_id"])
        if spec is None or spec.dataset is None or spec.split is None:
            continue
        try:
            y = table.get(system, task, spec.dataset, spec.split)
        except ParseError:
            continue
        points.append((float(rec[predictor_column]), y))
    return points


@_stage
def cmd_fit(cfg: RunConfig, run: _Run) -> None:
    _require(cfg.transport is not None, "no transport block configured (fit needs its task and systems)")
    records = _similarity_records(run.artifact("similarity.json"))
    _require(len(records) > 0, "similarity.json has no records")
    table = run.score_table()
    spec = cfg.transport
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require_distinct_slugs(systems, "systems")
    percent = cfg.scores.metric.lower() in PERCENT_METRICS
    by_domain = {c.domain_id: c for c in cfg.corpora}

    summary_fits: dict[str, Any] = {}
    skipped: list[dict[str, Any]] = []
    mae_by_predictor: dict[str, list[float]] = {p: [] for p in cfg.fit.predictors}
    plots: dict[str, list[tuple[str, float, float]]] = {}  # joined scatter data per predictor, for external plotting

    for system in systems:
        for predictor in cfg.fit.predictors:
            column = PREDICTOR_COLUMNS[predictor]
            points = _join_points(by_domain, records, table, system, spec.task, column)
            if len(points) < 3:
                skipped.append({"system": system, "predictor": predictor, "points": len(points)})
                print(f"warning: skipping fit for {system}/{predictor}: "
                      f"only {len(points)} joinable point(s), need 3", file=sys.stderr)
                continue
            model = fit_curve(points, predictor_name=column, percent_scale=percent)
            stem = f"fit-{_slug(system)}-{predictor}"
            run.write_json(f"{stem}.json", system=system, predictor=predictor, metric=table.metric_name,
                           model=asdict(model), points=sorted(points))
            x_max = max(x for x, _ in points)
            curve = curve_points(model, x_max if x_max > 0 else 1.0)
            run.write(f"curve-{_slug(system)}-{predictor}.csv", _csv_text(
                run.hash, [column, "predicted_score"], [[repr(xv), repr(yv)] for xv, yv in curve]))
            summary_fits.setdefault(system, {})[predictor] = {
                "a": model.a, "b": model.b, "c": model.c, "sse": model.sse, "mae": model.mae, "n": model.n,
                "file": f"{stem}.json"}
            mae_by_predictor[predictor].append(model.mae)
            plots.setdefault(predictor, []).extend((system, x, y) for x, y in points)
            print(f"fit: {system}/{predictor} mae={model.mae:.4f} over {model.n} point(s)")

    for predictor, rows in plots.items():  # by system, then by point
        run.write(f"plot-{predictor}.csv", _csv_text(run.hash, ["system", PREDICTOR_COLUMNS[predictor], "score"],
                                                     [[s, repr(x), repr(y)] for s, x, y in sorted(rows)]))
    run.write_json("fit_summary.json",
                   metric=table.metric_name,
                   fits=summary_fits,
                   skipped=sorted(skipped, key=lambda s: (s["system"], s["predictor"])),
                   mean_mae={p: (sum(v) / len(v) if v else None) for p, v in mae_by_predictor.items()})
    print(f"fit: {sum(len(v) for v in summary_fits.values())} model(s), {len(skipped)} skipped")


def cmd_predict(model_path: Path, x: float) -> None:
    name = model_path.name
    payload = _parse_artifact(read_file(model_path, f"missing {name}; run the fit stage first"), model_path)
    _check_fields(name, "top level", payload, model="an object")
    _check_fields(name, "model", payload["model"], **dict.fromkeys("abc", "a number"), percent_scale="true or false")
    try:
        model = fields_from_dict(FitModel, payload["model"], "model")
        model = replace(model, fit_log=fields_from_dict(FitLog, model.fit_log, "fit_log"))
    except ConfigError as exc:
        raise ParseError(f"corrupt artifact {name}: {exc}") from None
    print(repr(predict(model, x)))


def _is_number(value: Any) -> bool:
    return type(value) in (int, float)  # a bool is not a number here


_KINDS = {
    "a number": _is_number,
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: type(v) is bool,
    "an object": lambda v: isinstance(v, dict),
    "a number or null": lambda v: v is None or _is_number(v),
    "an object of numbers": lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "a dataset/split object": lambda v: isinstance(v, dict) and {type(v.get("dataset")), type(v.get("split"))} == {str},
}


def _check_fields(artifact: str, where: str, entry: dict[str, Any], **kinds: str) -> None:
    """Refuse ``entry`` of ``artifact`` unless it has each field ``name``, of its kind, one of :data:`_KINDS`."""
    for name, kind in kinds.items():
        if name not in entry or not _KINDS[kind](entry[name]):
            raise ParseError(f"corrupt artifact {artifact}: {where}: {name!r} must be {kind}")


def _similarity_records(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """The records of similarity.json, each checked for the fields ``fit`` and ``report`` read."""
    records = payload.get("records", [])
    if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
        raise ParseError("corrupt artifact similarity.json: 'records' must be a list of objects")
    for i, rec in enumerate(records):
        _check_fields("similarity.json", f"record {i}", rec, source_id="a string", target_id="a string",
                      **dict.fromkeys(CSV_COLUMNS[2:], "a number"))
    return records


def _transport_reports(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """The reports of transport.json, each checked for the fields ``render_report_text`` reads."""
    reports = payload["reports"]
    if not (isinstance(reports, list) and reports and all(isinstance(rep, dict) for rep in reports)):
        raise ParseError("corrupt artifact transport.json: 'reports' must be a non-empty list of objects")
    for i, rep in enumerate(reports):
        _check_fields("transport.json", f"report {i}", rep, system="a string", source="a dataset/split object",
                      tau_p="a number", variation="a number or null", group_means="an object of numbers")
    return reports


def _check_fit_summary(summary: dict[str, Any]) -> None:
    """Refuse a fit_summary.json whose fields that ``report.txt`` renders are malformed, before anything is written."""
    fits = summary.get("fits", {})
    if not (isinstance(fits, dict) and all(isinstance(entries, dict) for entries in fits.values())
            and all(isinstance(e, dict) and isinstance(e.get("file"), str) for v in fits.values() for e in v.values())):
        raise ParseError("corrupt artifact fit_summary.json: 'fits' must map systems to fit entries")
    for system, entries in fits.items():
        for predictor, entry in entries.items():
            _check_fields("fit_summary.json", f"fit {system}/{predictor}", entry,
                          **dict.fromkeys(("a", "b", "c", "sse", "mae"), "a number"), n="an integer")
    mean_mae = summary.get("mean_mae", {})
    if not (isinstance(mean_mae, dict) and all(v is None or _is_number(v) for v in mean_mae.values())):
        raise ParseError("corrupt artifact fit_summary.json: 'mean_mae' must map predictors to numbers or null")


@_stage
def cmd_report(cfg: RunConfig, run: _Run) -> None:
    fits = run.artifact("fit_summary.json", {"status": "absent"})
    _check_fit_summary(fits)
    sections = {name: run.artifact(f"{name}.json", {"status": "absent"}) for name in ("similarity", "transport")}
    tables: dict[str, list[str]] = {}  # the lines of each report.txt section whose input is present
    if "records" in sections["similarity"]:
        tables["similarity"] = ["  ".join(CSV_COLUMNS)] + [
            "  ".join([rec["source_id"], rec["target_id"], *("%.6f" % rec[c] for c in CSV_COLUMNS[2:])])
            for rec in _similarity_records(sections["similarity"])]
    if "reports" in sections["transport"]:
        tables["transport"] = render_report_text(_transport_reports(sections["transport"]),
                                                 group_order=_group_order(cfg)).splitlines()
    if "fits" in fits:
        tables["fit"] = ["system  predictor  a  b  c  sse  mae  n"] + [
            f"{system}  {predictor}  " + "  ".join(f"{m[k]:.6f}" for k in ("a", "b", "c", "sse", "mae")) + f"  {m['n']}"
            for system, entries in sorted(fits["fits"].items()) for predictor, m in sorted(entries.items())]
        mean_mae = fits.get("mean_mae", {})
        tables["fit"] += [f"mean_mae[{p}] = {mean_mae[p]:.6f}" for p in sorted(mean_mae) if mean_mae[p] is not None]

    run.write_json("report.json", similarity=sections["similarity"], transport=sections["transport"], fits=fits)
    lines = ["domain transport report", f"config_hash={run.hash} tool_version={__version__}"]
    for name in ("similarity", "transport", "fit"):
        lines += ["", f"[{name}]", *tables.get(name, ["absent"])]
    run.write("report.txt", "\n".join(lines) + "\n")
    print("report written")


# ---------------------------------------------------------------- command line


def _domain_ids(text: str) -> tuple[str, ...]:
    """The domain ids of a comma-separated ``--targets`` value."""
    ids = tuple(t.strip() for t in text.split(",") if t.strip())
    if not ids:
        raise argparse.ArgumentTypeError("must name at least one domain id")
    return ids


# stage -> (its help line, its own options: flag -> add_argument keywords). A dest
# "block.field" is a flag override of that field of the config; any other dest is
# passed to the stage by name. Every stage but predict also takes --config and --out.
_COMMANDS: dict[str, tuple[str, dict[str, dict[str, Any]]]] = {
    "ingest": ("Parse corpora and cache their domain profiles.", {
        "--seed": dict(dest="embedding.seed", type=int, metavar="INT", help="Override the embedding seed.")}),
    "similarity": ("Compute the similarity table from cached profiles.", {
        "--source": dict(dest="similarity.source", metavar="ID",
                         help="Override the source domain id for the similarity table."),
        "--targets": dict(dest="similarity.targets", type=_domain_ids, metavar="IDS",
                          help="Override the target domain ids (comma-separated)."),
        "--kl-direction": dict(dest="kl.direction", choices=["forward", "reverse"], help="Override the KL direction."),
        "--kl-epsilon": dict(dest="kl.epsilon", type=float, metavar="FLOAT",
                             help="Override the KL smoothing epsilon.")}),
    "transport": ("Compute transport ratios and variation from the score table.", {
        "--bias-corrected": dict(dest="transport.bias_corrected", action=argparse.BooleanOptionalAction,
                                 help="Override the small-sample bias correction for the variation measure.")}),
    "fit": ("Fit decay curves of score against each similarity measure.", {
        "--predictor": dict(dest="fit.predictors", action="append", choices=sorted(PREDICTOR_COLUMNS),
                            help="Restrict fitting to the named predictor(s); repeatable.")}),
    "predict": ("Predict a score from a saved model at a new similarity value.", {
        "--model": dict(required=True, metavar="PATH", help="Path to a fit-*.json artifact."),
        "--x": dict(required=True, type=float, metavar="FLOAT", help="Similarity value to predict at.")}),
    "report": ("Combine stage outputs into one report.", {
        "--allow-partial": dict(action="store_true",
                                help="Render whatever stages have run instead of failing on gaps.")}),
}


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option and no ``-h``, and raises on a bad command line instead of exiting."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :data:`_COMMANDS`, built once per process.

    It holds stage names only: :func:`main` looks ``cmd_<stage>`` up on
    the module at each call, so a wrapper set there in between is called.
    """
    parser = _Parser(prog="domainport", description="Domain transportability toolkit.")
    parser.add_argument("--version", action="version", version=f"domainport {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(dest="stage", metavar="COMMAND", required=True)
    for stage, (summary, options) in _COMMANDS.items():
        sub = commands.add_parser(stage, help=summary, description=summary)
        if stage != "predict":
            sub.add_argument("--config", required=True, metavar="PATH", help="Path to the JSON run configuration.")
            sub.add_argument("--out", metavar="DIR", help="Override the configured output directory.")
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
    return parser


def _run(cmd: Callable[..., None], args: dict[str, Any]) -> None:
    """Run stage ``cmd`` on the parsed ``args`` under the run lock.

    The config is the one at ``--config`` with ``--out`` and each
    ``block.field`` flag value given (not None). Those values are the
    run's flag overrides, which its artifacts record.
    """
    cfg = load_config(args.pop("config"))
    out_dir = args.pop("out")
    flags: dict[str, dict[str, Any]] = {}
    settings: dict[str, Any] = {}
    for dest, value in args.items():
        block, _, name = dest.rpartition(".")
        if not block:
            settings[name] = value
        elif value is not None and getattr(cfg, block) is not None:  # a flag for an absent transport block does nothing
            # a repeatable flag gives a list: each value counts once
            flags.setdefault(block, {})[name] = tuple(dict.fromkeys(value)) if isinstance(value, list) else value
    changes: dict[str, Any] = {block: replace(getattr(cfg, block), **values) for block, values in flags.items()}
    if out_dir is not None:
        changes["out_dir"] = out_dir
    cfg = replace(cfg, **changes)
    with _run_lock(cfg.out_path):
        cmd(cfg, flags, **settings)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        args = vars(_parser().parse_args(argv))
        stage = args.pop("stage")
        if stage == "predict":
            cmd_predict(Path(args["model"]), args["x"])
        else:
            _run(globals()[f"cmd_{stage}"], args)
        return 0
    except SystemExit as exc:  # --help and --version print, then exit 0
        return exc.code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a full disk, an unwritable path, a file where a directory belongs
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

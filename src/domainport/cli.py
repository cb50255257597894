"""Command-line pipeline: ingest, similarity, transport, fit, predict, report.

Stages communicate only through files in the output directory, so any
stage can be rerun in isolation. All outputs are deterministic: no
timestamps, stable key order, and every artifact embeds the hash of
the effective configuration plus the tool version.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import click

from . import __version__
from .corpus import Corpus, TokenizerConfig, parse_conll, parse_interchange, parse_jsonl_pairs, parse_plaintext
from .divergence import CSV_COLUMNS, KLSettings, records_to_csv, similarity_table
from .errors import ComputationError, ConfigError, ParseError, read_file, read_text
from .features import (
    DomainProfile,
    EmbeddingConfig,
    build_profile,
    build_profile_external,
    load_external_embeddings,
    profile_from_dict,
    profile_to_dict,
)
from .hashing import content_digest, dump_json, fields_from_dict, stable_hash
from .hashing import fnv1a_64  # noqa: F401  unused here, but bench/tracing.py wraps cli.fnv1a_64 by name
from .regression import FitModel, curve_points, fit as fit_curve, predict
from .transport import (
    PERCENT_METRICS,
    ScoreTable,
    build_report,
    load_score_table,
    render_report_text,
    report_to_dict,
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
        return str(obj["dataset"]), str(obj["split"])
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return str(obj[0]), str(obj[1])
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
        fmt = str(self.format)
        _require(fmt in CORPUS_FORMATS, f"unknown format {fmt!r}; expected one of {CORPUS_FORMATS}")
        _normalize(self, domain_id=str(self.domain_id), path=str(self.path), format=fmt,
                   fields=_strings(self.fields, "fields must be a list of strings"), text_unit=str(self.text_unit))


@dataclass(frozen=True)
class ScoresSpec:
    path: str | None = None
    metric: str = "F1"

    def __post_init__(self) -> None:
        _normalize(self, metric=str(self.metric))


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
        _require(isinstance(self.targets, (list, tuple)), "transport.targets must be a list")
        targets = [_key_pair(t, f"transport.targets[{j}]", "group") for j, t in enumerate(self.targets)]
        _require(len(targets) > 0, "transport.targets must be non-empty")
        systems = _strings(self.systems, "transport.systems must be a list of strings")
        _require_unique(systems or (), "system")
        groups = {name: list(keys) for name, keys in self.groups.items()}  # set when replace() copies a spec
        for key, t in zip(targets, self.targets):
            if isinstance(t, dict) and t.get("group") is not None:
                groups.setdefault(str(t["group"]), []).append(key)
        _normalize(self, task=str(self.task), source=_key_pair(self.source, "transport.source"), targets=tuple(targets),
                   systems=systems, groups={name: tuple(keys) for name, keys in groups.items()},
                   bias_corrected=bool(self.bias_corrected))


@dataclass(frozen=True)
class SimilaritySpec:
    source: str | None = None  # None: the first corpus
    targets: tuple[str, ...] | None = None  # None: every corpus

    def __post_init__(self) -> None:
        _normalize(self, targets=_strings(self.targets, "similarity.targets must be a list of domain ids"))


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

    ``out_dir`` is deliberately excluded from the config hash: the
    same analysis written to two directories is the same analysis.
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
        ids = [c.domain_id for c in self.corpora]
        _require_unique(ids, "domain_id")
        _require_distinct_slugs(ids, "domain ids")

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.config_dir / p

    @property
    def out_path(self) -> Path:
        return self.resolve(self.out_dir)

    def config_hash(self) -> str:
        config = asdict(self)
        del config["config_dir"], config["out_dir"]
        return stable_hash(config)


_BLOCKS = {"tokenizer": TokenizerConfig, "embedding": EmbeddingConfig, "kl": KLSettings, "scores": ScoresSpec,
           "transport": TransportSpec, "similarity": SimilaritySpec, "fit": FitSpec}


def _block(cls: type[Any], value: Any, kind: str) -> Any:
    """The ``cls`` record that config block ``kind`` holds."""
    _require(isinstance(value, dict), f"{kind} must be an object")
    return fields_from_dict(cls, value, kind)


def _corpus(i: int, item: Any) -> CorpusSpec:
    try:
        return _block(CorpusSpec, item, "corpus")
    except ConfigError as exc:
        raise ConfigError(f"corpora[{i}]: {exc}") from None


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(read_text(p, "config")[0])
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig) if f.name != "config_dir"}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    if raw.get("transport") is None:
        raw.pop("transport", None)  # null: no transport block
    corpora = raw.get("corpora", [])
    _require(isinstance(corpora, list), "corpora must be a list")
    return RunConfig(
        config_dir=p.parent.resolve(),
        out_dir=str(raw.get("out_dir", "out")),
        corpora=tuple(_corpus(i, item) for i, item in enumerate(corpora)),
        external_embeddings=raw.get("external_embeddings"),
        **{key: _block(cls, raw[key], key) for key, cls in _BLOCKS.items() if key in raw},
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
    temporary file behind.
    """
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # the run lock keeps the name unique
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return data


def _artifact_text(config_hash: str, **payload: Any) -> str:
    """The text of a JSON artifact stamped with the config hash and the tool version."""
    return dump_json({"config_hash": config_hash, "tool_version": __version__, **payload})


def _meta_comment(config_hash: str) -> str:
    return f"#config_hash={config_hash},tool_version={__version__}\r\n"


def _csv_text(config_hash: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return _meta_comment(config_hash) + buf.getvalue()


class _Stamp:
    """The content-keyed cache of one stage, kept in ``cache/stage-<stage>.json``.

    The key digests the stage name, the tool version, the config hash, any
    run setting outside that hash, and the content digest of every input
    passed to :meth:`input` under its name (relative to the output
    directory, or ``scores`` for the score table). The stamp holds the key
    and the digest of every file the stage wrote through :meth:`write`.

    :meth:`up_to_date` is a hit when the stamp's key matches and every
    output it lists still has its digest. On a miss it deletes the stamp,
    which :meth:`finish` writes again after the stage's last write, so a
    run that fails leaves none.
    """

    def __init__(self, out: Path, stage: str, config_hash: str, **settings: Any) -> None:
        self.out = out
        self.stage = stage
        self.path = out / "cache" / f"stage-{stage}.json"
        self.key = ""
        self._fields = {"stage": stage, "tool_version": __version__, "config_hash": config_hash, **settings}
        self._inputs: dict[str, str] = {}
        self._outputs: dict[str, str] = {}

    def input(self, name: str, raw: bytes) -> bytes:
        """Add input ``name`` with contents ``raw`` to the key; returns ``raw``."""
        self._inputs[name] = content_digest(raw)
        return raw

    def up_to_date(self) -> bool:
        """True, after saying so, when the stamp matches; else delete the stamp."""
        self.key = stable_hash({**self._fields, "inputs": self._inputs})
        if self._matches():
            click.echo(f"{self.stage}: up to date")
            return True
        self.path.unlink(missing_ok=True)
        return False

    def _matches(self) -> bool:
        try:
            stamp = json.loads(self.path.read_bytes())
        except (OSError, ValueError):  # absent, unreadable, not UTF-8 or not JSON
            return False
        if not (isinstance(stamp, dict) and stamp.get("key") == self.key and isinstance(stamp.get("outputs"), dict)):
            return False
        for name, digest in stamp["outputs"].items():
            path = self.out / name
            if not path.is_file() or content_digest(path.read_bytes()) != digest:
                return False
        return True

    def write(self, name: str, text: str) -> None:
        """Write output ``name`` under the output directory and record its digest."""
        self._outputs[name] = content_digest(_write_text(self.out / name, text))

    def finish(self) -> None:
        """Write the stamp: the key and the digest of every output written."""
        _write_text(self.path, dump_json({"key": self.key, "outputs": self._outputs}))


def _slug(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "._-" else "-")
    return "".join(out) or "x"


def _require_distinct_slugs(names: Iterable[str], kind: str) -> None:
    """Refuse two different names that would share an artifact file name."""
    by_slug: dict[str, str] = {}
    for name in names:
        other = by_slug.setdefault(_slug(name), name)
        _require(other == name, f"{kind} {other!r} and {name!r} map to the same file name {_slug(name)!r}")


def _parse_artifact(raw: bytes, path: Path) -> dict[str, Any]:
    """The JSON object that ``raw``, the bytes of artifact ``path``, holds."""
    try:
        payload = json.loads(read_text(raw, f"artifact {path.name}", str(path))[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupt artifact {path.name}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"corrupt artifact {path.name}: expected a JSON object")
    return payload


def _profile_path(out: Path, domain_id: str) -> Path:
    return out / "cache" / f"profile-{_slug(domain_id)}.json"


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
    return parse_interchange(raw, source=spec.path)


def cmd_ingest(cfg: RunConfig) -> None:
    _require(len(cfg.corpora) > 0, "no corpora configured; nothing to ingest")
    out = cfg.out_path
    cache = out / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    config_hash = cfg.config_hash()

    manifest_path = cache / "manifest.json"
    domains: dict[str, Any] = {}
    if manifest_path.is_file():
        try:
            manifest = json.loads(read_text(manifest_path, "manifest")[0])
        except (ParseError, json.JSONDecodeError):
            manifest = None  # unreadable: rebuilt, like one that is not an object
        if isinstance(manifest, dict) and isinstance(manifest.get("domains"), dict):
            domains = dict(manifest["domains"])

    external = None
    if cfg.external_embeddings:
        external = load_external_embeddings(
            cfg.resolve(cfg.external_embeddings), [c.domain_id for c in cfg.corpora]
        )
        emb_hash = stable_hash({"kind": "external", "path": cfg.external_embeddings,
                                "dimension": int(next(iter(external.values())).size)})
    else:
        emb_hash = cfg.embedding.config_hash()

    failures: list[tuple[str, Exception]] = []
    changed = not manifest_path.is_file()
    for spec in cfg.corpora:
        try:
            path = cfg.resolve(spec.path)
            if not path.is_file():
                raise ConfigError(f"corpus file not found: {spec.path}")
            raw = path.read_bytes()  # the one read of this file per run: hashed, and parsed on a miss
            input_hash = content_digest(raw)
            profile_file = _profile_path(out, spec.domain_id)
            entry = domains.get(spec.domain_id)
            if (
                isinstance(entry, dict)
                and entry.get("input_hash") == input_hash
                and entry.get("tokenizer_hash") == cfg.tokenizer.config_hash()
                and entry.get("embedding_hash") == emb_hash
                and profile_file.is_file()
            ):
                click.echo(f"cache hit: {spec.domain_id}")
                continue
            corpus = _parse_corpus_spec(cfg, spec, raw)
            del raw  # the file's bytes need not stay alive while the profile is built and written
            if external is not None:
                profile = build_profile_external(corpus, external[spec.domain_id], cfg.external_embeddings)
            else:
                profile = build_profile(corpus, cfg.embedding)
            _write_text(profile_file, _artifact_text(config_hash, profile=profile_to_dict(profile)))
            tokens = corpus.token_count
            domains[spec.domain_id] = {
                "input_hash": input_hash,
                "tokenizer_hash": cfg.tokenizer.config_hash(),
                "embedding_hash": emb_hash,
                "profile_file": profile_file.name,
                "path": spec.path,
                "documents": len(corpus.documents),
                "tokens": tokens,
                "skipped": corpus.provenance.skipped,
            }
            changed = True
            click.echo(f"ingested: {spec.domain_id} ({len(corpus.documents)} documents, {tokens} tokens)")
        except (ConfigError, ParseError, ComputationError) as exc:
            failures.append((spec.domain_id, exc))
            click.echo(f"failed: {spec.domain_id}: {exc}", err=True)

    if changed:
        _write_text(manifest_path, _artifact_text(config_hash, domains=domains))
    if failures:
        ids = ", ".join(d for d, _ in failures)
        if all(isinstance(e, ConfigError) for _, e in failures):
            raise ConfigError(f"ingest failed for: {ids}")
        raise ParseError(f"ingest failed for: {ids}")


def _parse_profile(raw: bytes, path: Path, domain_id: str) -> DomainProfile:
    payload = _parse_artifact(raw, path)
    if "profile" not in payload:
        raise ParseError(f"corrupt profile artifact for domain {domain_id!r}")
    return profile_from_dict(payload["profile"])


def cmd_similarity(cfg: RunConfig) -> None:
    _require(len(cfg.corpora) > 0, "no corpora configured")
    source_id = cfg.similarity.source or cfg.corpora[0].domain_id
    target_ids = list(cfg.similarity.targets) if cfg.similarity.targets is not None else [
        c.domain_id for c in cfg.corpora
    ]
    known = {c.domain_id for c in cfg.corpora}
    for d in [source_id, *target_ids]:
        _require(d in known, f"similarity references unknown domain {d!r}")

    config_hash = cfg.config_hash()
    out = cfg.out_path
    stamp = _Stamp(out, "similarity", config_hash)
    paths = {d: _profile_path(out, d) for d in dict.fromkeys([source_id, *target_ids])}
    raw: dict[str, bytes] = {}
    for d, path in paths.items():
        if not path.is_file():
            raise ConfigError(f"no cached profile for domain {d!r}; run the ingest stage first")
        raw[d] = stamp.input(f"cache/{path.name}", path.read_bytes())
    if stamp.up_to_date():
        return
    profiles = {d: _parse_profile(raw.pop(d), path, d) for d, path in paths.items()}  # pop: bytes die once parsed
    records = similarity_table(profiles[source_id], [profiles[t] for t in target_ids], cfg.kl)

    stamp.write("similarity.csv", _meta_comment(config_hash) + records_to_csv(records))
    stamp.write("similarity.json", _artifact_text(config_hash, records=[r.to_dict() for r in records]))
    stamp.finish()
    click.echo(f"similarity: {len(records)} record(s) from {source_id!r}")


def _read_scores(cfg: RunConfig, stamp: _Stamp) -> tuple[str, str]:
    """The score table's text and source label; its bytes join ``stamp``'s key and are then dropped."""
    path = cfg.resolve(cfg.scores.path)
    raw = read_file(path, f"score table file not found: {path}")
    return read_text(stamp.input("scores", raw), "score table", str(path))


def _group_order(cfg: RunConfig) -> list[str] | None:
    """Group columns of the transport table in config order; None sorts them."""
    return list(cfg.transport.groups) if cfg.transport is not None and cfg.transport.groups else None


def cmd_transport(cfg: RunConfig) -> None:
    _require(cfg.scores.path is not None, "no score table configured (scores.path)")
    _require(cfg.transport is not None, "no transport block configured")
    spec = cfg.transport
    config_hash = cfg.config_hash()
    stamp = _Stamp(cfg.out_path, "transport", config_hash)
    scores, label = _read_scores(cfg, stamp)
    if stamp.up_to_date():
        return
    table = load_score_table(scores, metric_name=cfg.scores.metric, source=label)
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require(len(systems) > 0, f"score table has no systems for task {spec.task!r}")

    reports = [build_report(table, system, spec.task, spec.source, spec.targets,
                            bias_corrected=spec.bias_corrected, groups=spec.groups or None) for system in systems]

    payloads = [report_to_dict(r) for r in reports]
    stamp.write("transport.json", _artifact_text(config_hash, reports=payloads))
    text = render_report_text(payloads, group_order=_group_order(cfg))
    header = f"# task={spec.task} metric={table.metric_name}\n# config_hash={config_hash} tool_version={__version__}\n"
    stamp.write("transport.txt", header + text)
    stamp.finish()
    click.echo(f"transport: {len(reports)} system report(s)")


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


def cmd_fit(cfg: RunConfig) -> None:
    _require(cfg.scores.path is not None, "no score table configured (scores.path)")
    _require(cfg.transport is not None, "no transport block configured (fit needs its task and systems)")
    config_hash = cfg.config_hash()
    out = cfg.out_path
    stamp = _Stamp(out, "fit", config_hash)
    sim_path = out / "similarity.json"
    sim = stamp.input(sim_path.name, read_file(sim_path, "missing similarity.json; run the similarity stage first"))
    scores, label = _read_scores(cfg, stamp)
    if stamp.up_to_date():
        return
    records = _similarity_records(_parse_artifact(sim, sim_path))
    _require(len(records) > 0, "similarity.json has no records")
    table = load_score_table(scores, metric_name=cfg.scores.metric, source=label)
    spec = cfg.transport
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require_distinct_slugs(systems, "systems")
    percent = cfg.scores.metric.lower() in PERCENT_METRICS
    by_domain = {c.domain_id: c for c in cfg.corpora}

    summary_fits: dict[str, Any] = {}
    skipped: list[dict[str, Any]] = []
    mae_by_predictor: dict[str, list[float]] = {p: [] for p in cfg.fit.predictors}

    for system in systems:
        for predictor in cfg.fit.predictors:
            column = PREDICTOR_COLUMNS[predictor]
            points = _join_points(by_domain, records, table, system, spec.task, column)
            if len(points) < 3:
                skipped.append({"system": system, "predictor": predictor, "points": len(points)})
                click.echo(f"warning: skipping fit for {system}/{predictor}: "
                           f"only {len(points)} joinable point(s), need 3", err=True)
                continue
            model = fit_curve(points, predictor_name=column, percent_scale=percent)
            stem = f"fit-{_slug(system)}-{predictor}"
            stamp.write(f"{stem}.json", _artifact_text(config_hash, system=system, predictor=predictor,
                                                       metric=table.metric_name, model=model.to_dict(),
                                                       points=sorted(points)))
            x_max = max(x for x, _ in points)
            curve = curve_points(model, x_max if x_max > 0 else 1.0)
            stamp.write(f"curve-{_slug(system)}-{predictor}.csv", _csv_text(
                config_hash, [column, "predicted_score"], [[repr(xv), repr(yv)] for xv, yv in curve]))
            summary_fits.setdefault(system, {})[predictor] = {
                "a": model.a, "b": model.b, "c": model.c, "sse": model.sse, "mae": model.mae, "n": model.n_points,
                "file": f"{stem}.json"}
            mae_by_predictor[predictor].append(model.mae)
            click.echo(f"fit: {system}/{predictor} mae={model.mae:.4f} over {model.n_points} point(s)")

    stamp.write("fit_summary.json", _artifact_text(
        config_hash,
        metric=table.metric_name,
        fits=summary_fits,
        skipped=sorted(skipped, key=lambda s: (s["system"], s["predictor"])),
        mean_mae={p: (sum(v) / len(v) if v else None) for p, v in mae_by_predictor.items()},
    ))
    stamp.finish()
    click.echo(f"fit: {sum(len(v) for v in summary_fits.values())} model(s), {len(skipped)} skipped")


def cmd_predict(model_path: Path, x: float) -> None:
    payload = _parse_artifact(read_file(model_path, f"missing {model_path.name}; run the fit stage first"), model_path)
    data = payload.get("model", payload)
    try:
        model = FitModel.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"corrupt model file {model_path.name}: {exc}") from exc
    click.echo(repr(predict(model, x)))


def _is_number(value: Any) -> bool:
    return type(value) in (int, float)  # a bool is not a number here


_KINDS = {"a number": _is_number, "an integer": lambda v: type(v) is int, "a string": lambda v: isinstance(v, str)}


def _check_fields(artifact: str, where: str, entry: dict[str, Any], **kinds: str) -> None:
    """Refuse ``entry`` of ``artifact`` unless each field ``name`` is of its kind, one of :data:`_KINDS`."""
    for name, kind in kinds.items():
        if not _KINDS[kind](entry.get(name)):
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


def _fit_files(summary: dict[str, Any], predictors: Sequence[str]) -> list[tuple[str, str, str]]:
    """(predictor, system, fit file) for each fit that fit_summary.json names, in plot order.

    Every field of the summary that ``report.txt`` renders is checked
    first, so a corrupt summary is refused before anything is written.
    """
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
    return [(p, system, fits[system][p]["file"]) for p in predictors for system in sorted(fits) if p in fits[system]]


def cmd_report(cfg: RunConfig, allow_partial: bool = False) -> None:
    out = cfg.out_path
    config_hash = cfg.config_hash()
    stamp = _Stamp(out, "report", config_hash, allow_partial=allow_partial)
    raw: dict[str, bytes] = {}
    missing: list[str] = []
    for name, stage in (("similarity", "similarity"), ("transport", "transport"), ("fit_summary", "fit")):
        path = out / f"{name}.json"
        if path.is_file():
            raw[name] = stamp.input(path.name, path.read_bytes())
        else:
            missing.append(f"{name}.json (run the {stage} stage)")
    if missing and not allow_partial:
        raise ConfigError("missing stage outputs: " + "; ".join(missing))

    def section(name: str) -> dict[str, Any]:
        if name not in raw:
            return {"status": "absent"}
        payload = _parse_artifact(raw.pop(name), out / f"{name}.json")
        payload.pop("config_hash", None)
        payload.pop("tool_version", None)
        return payload

    # fit_summary.json names the fit files, so it alone is parsed before the stamp check
    fits = section("fit_summary")
    fit_raw: list[tuple[str, str, Path, bytes]] = []  # predictor, system, fit file and its bytes
    for predictor, system, name in _fit_files(fits, cfg.fit.predictors):
        path = out / name
        fit_raw.append((predictor, system, path,
                        stamp.input(name, read_file(path, f"missing {path.name}; run the fit stage first"))))
    if stamp.up_to_date():
        return
    sections = {"similarity": section("similarity"), "transport": section("transport")}
    records = _similarity_records(sections["similarity"]) if "records" in sections["similarity"] else None

    # joined scatter data per predictor, for external plotting
    plots: dict[str, list[list[str]]] = {}
    for predictor, system, path, fit_bytes in fit_raw:
        points = _parse_artifact(fit_bytes, path).get("points", [])
        pairs = isinstance(points, list) and all(isinstance(pt, list) and len(pt) == 2 for pt in points)
        if not (pairs and all(_is_number(v) for pt in points for v in pt)):
            raise ParseError(f"corrupt artifact {path.name}: 'points' must be a list of [x, y] number pairs")
        for x, y in points:
            plots.setdefault(predictor, []).append([system, repr(float(x)), repr(float(y))])

    stamp.write("report.json", _artifact_text(config_hash, similarity=sections["similarity"],
                                              transport=sections["transport"], fits=fits))

    lines = ["domain transport report", f"config_hash={config_hash} tool_version={__version__}", "", "[similarity]"]
    if records is not None:
        lines.append("  ".join(CSV_COLUMNS))
        for rec in records:
            lines.append("  ".join([rec["source_id"], rec["target_id"], *("%.6f" % rec[c] for c in CSV_COLUMNS[2:])]))
    else:
        lines.append("absent")
    lines += ["", "[transport]"]
    tr = sections["transport"]
    if "reports" in tr:
        lines.extend(render_report_text(tr["reports"], group_order=_group_order(cfg)).splitlines())
    else:
        lines.append("absent")
    lines += ["", "[fit]"]
    if "fits" in fits:
        lines.append("system  predictor  a  b  c  sse  mae  n")
        for system in sorted(fits["fits"]):
            for predictor in sorted(fits["fits"][system]):
                m = fits["fits"][system][predictor]
                lines.append(
                    f"{system}  {predictor}  "
                    f"{m['a']:.6f}  {m['b']:.6f}  {m['c']:.6f}  {m['sse']:.6f}  {m['mae']:.6f}  {m['n']}"
                )
        mm = fits.get("mean_mae", {})
        for predictor in sorted(mm):
            if mm[predictor] is not None:
                lines.append(f"mean_mae[{predictor}] = {mm[predictor]:.6f}")
    else:
        lines.append("absent")
    stamp.write("report.txt", "\n".join(lines) + "\n")
    for predictor, rows in plots.items():
        stamp.write(f"plot-{predictor}.csv",
                    _csv_text(config_hash, ["system", PREDICTOR_COLUMNS[predictor], "score"], rows))
    stamp.finish()
    click.echo("report written")


# ---------------------------------------------------------------- click wiring


def _apply_overrides(config_path: str, out_dir: str | None, **blocks: dict[str, Any]) -> RunConfig:
    """The config at ``config_path`` with ``--out`` and, in each named block, the flag values given (not None)."""
    cfg = load_config(config_path)
    changes: dict[str, Any] = {} if out_dir is None else {"out_dir": out_dir}
    for name, values in blocks.items():
        given = {key: value for key, value in values.items() if value is not None}
        if given and getattr(cfg, name) is not None:  # a flag for an absent transport block does nothing
            changes[name] = replace(getattr(cfg, name), **given)
    return replace(cfg, **changes)


_CONFIG_OPTION = click.option("--config", "config_path", required=True, type=str, help="Path to the JSON run configuration.")
_OUT_OPTION = click.option("--out", "out_dir", default=None, type=str, help="Override the configured output directory.")


@click.group(name="domainport")
@click.version_option(version=__version__, prog_name="domainport")
def _cli() -> None:
    """Domain transportability toolkit."""


@_cli.command("ingest")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--seed", type=int, default=None, help="Override the embedding seed.")
def _ingest_cmd(config_path: str, out_dir: str | None, seed: int | None) -> None:
    """Parse corpora and cache their domain profiles."""
    cfg = _apply_overrides(config_path, out_dir, embedding={"seed": seed})
    with _run_lock(cfg.out_path):
        cmd_ingest(cfg)


@_cli.command("similarity")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--source", "source_id", default=None, type=str,
              help="Override the source domain id for the similarity table.")
@click.option("--targets", "target_ids", default=None, type=str,
              help="Override the target domain ids (comma-separated).")
@click.option("--kl-direction", type=click.Choice(["forward", "reverse"]), default=None,
              help="Override the KL direction.")
@click.option("--kl-epsilon", type=float, default=None, help="Override the KL smoothing epsilon.")
def _similarity_cmd(
    config_path: str,
    out_dir: str | None,
    source_id: str | None,
    target_ids: str | None,
    kl_direction: str | None,
    kl_epsilon: float | None,
) -> None:
    """Compute the similarity table from cached profiles."""
    targets = None
    if target_ids is not None:
        targets = tuple(t.strip() for t in target_ids.split(",") if t.strip())
        _require(len(targets) > 0, "--targets must name at least one domain id")
    cfg = _apply_overrides(config_path, out_dir, kl={"direction": kl_direction, "epsilon": kl_epsilon},
                           similarity={"source": source_id, "targets": targets})
    with _run_lock(cfg.out_path):
        cmd_similarity(cfg)


@_cli.command("transport")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--bias-corrected/--no-bias-corrected", "bias_corrected", default=None,
              help="Override the small-sample bias correction for the variation measure.")
def _transport_cmd(config_path: str, out_dir: str | None, bias_corrected: bool | None) -> None:
    """Compute transport ratios and variation from the score table."""
    cfg = _apply_overrides(config_path, out_dir, transport={"bias_corrected": bias_corrected})
    with _run_lock(cfg.out_path):
        cmd_transport(cfg)


@_cli.command("fit")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--predictor", "predictors", multiple=True, type=click.Choice(sorted(PREDICTOR_COLUMNS)),
              help="Restrict fitting to the named predictor(s); repeatable.")
def _fit_cmd(config_path: str, out_dir: str | None, predictors: tuple[str, ...]) -> None:
    """Fit decay curves of score against each similarity measure."""
    cfg = _apply_overrides(config_path, out_dir, fit={"predictors": tuple(dict.fromkeys(predictors)) or None})
    with _run_lock(cfg.out_path):
        cmd_fit(cfg)


@_cli.command("predict")
@click.option("--model", "model_path", required=True, type=str, help="Path to a fit-*.json artifact.")
@click.option("--x", "x_value", required=True, type=float, help="Similarity value to predict at.")
def _predict_cmd(model_path: str, x_value: float) -> None:
    """Predict a score from a saved model at a new similarity value."""
    cmd_predict(Path(model_path), x_value)


@_cli.command("report")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--allow-partial", is_flag=True, default=False,
              help="Render whatever stages have run instead of failing on gaps.")
def _report_cmd(config_path: str, out_dir: str | None, allow_partial: bool) -> None:
    """Combine stage outputs into one report."""
    cfg = _apply_overrides(config_path, out_dir)
    with _run_lock(cfg.out_path):
        cmd_report(cfg, allow_partial=allow_partial)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        _cli.main(args=list(argv) if argv is not None else None, prog_name="domainport", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except ParseError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ComputationError as exc:
        click.echo(f"computation error: {exc}", err=True)
        return 3


def entry() -> None:
    sys.exit(main())

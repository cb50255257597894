"""Command-line pipeline: ingest, similarity, transport, fit, predict, report.

Stages communicate only through files in the output directory, so any
stage can be rerun in isolation. All outputs are deterministic: no
timestamps, stable key order, and every artifact embeds the hash of
the effective configuration plus the tool version.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import click

from . import __version__
from .corpus import Corpus, TokenizerConfig, parse_conll, parse_interchange, parse_jsonl_pairs, parse_plaintext
from .divergence import CSV_COLUMNS, KLSettings, similarity_table
from .errors import ComputationError, ConfigError, ParseError
from .features import (
    DomainProfile,
    EmbeddingConfig,
    build_profile,
    build_profile_external,
    load_external_embeddings,
    profile_from_dict,
    profile_to_dict,
)
from .hashing import content_digest, stable_hash
from .hashing import fnv1a_64  # noqa: F401  unused here, but bench/tracing.py wraps cli.fnv1a_64 by name
from .regression import FitModel, curve_points, fit as fit_curve, predict
from .transport import (
    PERCENT_METRICS,
    ScoreTable,
    TransportReport,
    build_report,
    load_score_table,
    render_report_text,
    report_to_dict,
)
from .corpus import corpus_to_json

PREDICTOR_COLUMNS = {
    "lexical": "lexical_difference",
    "cosine": "cosine_distance",
    "kl": "kl_divergence",
}

CORPUS_FORMATS = ("conll", "jsonl", "text", "interchange")


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class CorpusSpec:
    domain_id: str
    path: str
    format: str
    fields: tuple[str, ...] | None = None  # jsonl text fields
    text_unit: str = "line"  # plaintext document unit
    dataset: str | None = None  # join keys into the score table
    split: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "domain_id": self.domain_id,
            "path": self.path,
            "format": self.format,
            "fields": list(self.fields) if self.fields is not None else None,
            "text_unit": self.text_unit,
            "dataset": self.dataset,
            "split": self.split,
        }


@dataclass(frozen=True)
class TransportSpec:
    task: str
    source: tuple[str, str]
    targets: tuple[tuple[str, str], ...]
    systems: tuple[str, ...] | None
    groups: Mapping[str, tuple[tuple[str, str], ...]]
    bias_corrected: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "source": list(self.source),
            "targets": [list(t) for t in self.targets],
            "systems": list(self.systems) if self.systems is not None else None,
            "groups": {k: [list(t) for t in v] for k, v in self.groups.items()},
            "bias_corrected": self.bias_corrected,
        }


@dataclass
class RunConfig:
    """Effective configuration for one pipeline run.

    ``out_dir`` is deliberately excluded from the config hash: the
    same analysis written to two directories is the same analysis.
    """

    config_dir: Path
    out_dir: str
    tokenizer: TokenizerConfig
    embedding: EmbeddingConfig
    kl: KLSettings
    corpora: tuple[CorpusSpec, ...]
    external_embeddings: str | None
    scores_path: str | None
    scores_metric: str
    transport: TransportSpec | None
    similarity_source: str | None
    similarity_targets: tuple[str, ...] | None
    predictors: tuple[str, ...]

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.config_dir / p

    @property
    def out_path(self) -> Path:
        return self.resolve(self.out_dir)

    def hashable_dict(self) -> dict[str, Any]:
        return {
            "tokenizer": self.tokenizer.to_dict(),
            "embedding": self.embedding.to_dict(),
            "kl": self.kl.to_dict(),
            "corpora": [c.to_dict() for c in self.corpora],
            "external_embeddings": self.external_embeddings,
            "scores": {"path": self.scores_path, "metric": self.scores_metric},
            "transport": self.transport.to_dict() if self.transport else None,
            "similarity": {
                "source": self.similarity_source,
                "targets": list(self.similarity_targets) if self.similarity_targets is not None else None,
            },
            "fit": {"predictors": list(self.predictors)},
        }

    def config_hash(self) -> str:
        return stable_hash(self.hashable_dict())


_TOP_LEVEL_KEYS = {
    "out_dir",
    "tokenizer",
    "embedding",
    "kl",
    "corpora",
    "external_embeddings",
    "scores",
    "transport",
    "similarity",
    "fit",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _key_pair(obj: Any, context: str) -> tuple[str, str]:
    if isinstance(obj, dict):
        _require("dataset" in obj and "split" in obj, f"{context} needs 'dataset' and 'split'")
        return str(obj["dataset"]), str(obj["split"])
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return str(obj[0]), str(obj[1])
    raise ConfigError(f"{context} must be a dataset/split pair")


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    tokenizer = TokenizerConfig.from_dict(raw.get("tokenizer", {}))
    embedding = EmbeddingConfig.from_dict(raw.get("embedding", {}))
    kl = KLSettings.from_dict(raw.get("kl", {}))

    corpora: list[CorpusSpec] = []
    seen_ids: set[str] = set()
    for i, item in enumerate(raw.get("corpora", [])):
        _require(isinstance(item, dict), f"corpora[{i}] must be an object")
        _require("domain_id" in item and "path" in item and "format" in item,
                 f"corpora[{i}] needs domain_id, path and format")
        fmt = str(item["format"])
        _require(fmt in CORPUS_FORMATS, f"corpora[{i}]: unknown format {fmt!r}; expected one of {CORPUS_FORMATS}")
        domain_id = str(item["domain_id"])
        _require(domain_id not in seen_ids, f"duplicate domain_id {domain_id!r}")
        seen_ids.add(domain_id)
        fields = item.get("fields")
        if fields is not None:
            _require(isinstance(fields, list) and all(isinstance(f, str) for f in fields),
                     f"corpora[{i}]: fields must be a list of strings")
            fields = tuple(fields)
        unknown_c = set(item) - {"domain_id", "path", "format", "fields", "text_unit", "dataset", "split"}
        _require(not unknown_c, f"corpora[{i}]: unknown keys {sorted(unknown_c)}")
        corpora.append(
            CorpusSpec(
                domain_id=domain_id,
                path=str(item["path"]),
                format=fmt,
                fields=fields,
                text_unit=str(item.get("text_unit", "line")),
                dataset=item.get("dataset"),
                split=item.get("split"),
            )
        )
    _require_distinct_slugs((c.domain_id for c in corpora), "domain ids")

    scores = raw.get("scores") or {}
    _require(isinstance(scores, dict), "scores must be an object")
    scores_path = scores.get("path")
    scores_metric = str(scores.get("metric", "F1"))

    transport = None
    if raw.get("transport") is not None:
        t = raw["transport"]
        _require(isinstance(t, dict), "transport must be an object")
        _require("task" in t and "source" in t and "targets" in t,
                 "transport needs 'task', 'source' and 'targets'")
        unknown_t = set(t) - {"task", "source", "targets", "systems", "bias_corrected"}
        _require(not unknown_t, f"transport: unknown keys {sorted(unknown_t)}")
        targets: list[tuple[str, str]] = []
        groups: dict[str, list[tuple[str, str]]] = {}
        for j, tgt in enumerate(t["targets"]):
            if isinstance(tgt, dict):
                key = _key_pair(tgt, f"transport.targets[{j}]")
                group = tgt.get("group")
            else:
                key = _key_pair(tgt, f"transport.targets[{j}]")
                group = None
            targets.append(key)
            if group is not None:
                groups.setdefault(str(group), []).append(key)
        _require(len(targets) > 0, "transport.targets must be non-empty")
        systems = t.get("systems")
        if systems is not None:
            _require(isinstance(systems, list) and all(isinstance(s, str) for s in systems),
                     "transport.systems must be a list of strings")
            systems = tuple(systems)
        transport = TransportSpec(
            task=str(t["task"]),
            source=_key_pair(t["source"], "transport.source"),
            targets=tuple(targets),
            systems=systems,
            groups={k: tuple(v) for k, v in groups.items()},
            bias_corrected=bool(t.get("bias_corrected", False)),
        )

    similarity = raw.get("similarity") or {}
    _require(isinstance(similarity, dict), "similarity must be an object")
    sim_source = similarity.get("source")
    sim_targets = similarity.get("targets")
    if sim_targets is not None:
        _require(isinstance(sim_targets, list) and all(isinstance(s, str) for s in sim_targets),
                 "similarity.targets must be a list of domain ids")
        sim_targets = tuple(sim_targets)

    fit_block = raw.get("fit") or {}
    _require(isinstance(fit_block, dict), "fit must be an object")
    predictors = fit_block.get("predictors", ["lexical", "cosine", "kl"])
    _require(isinstance(predictors, list) and predictors, "fit.predictors must be a non-empty list")
    for pred in predictors:
        _require(pred in PREDICTOR_COLUMNS, f"unknown predictor {pred!r}; expected one of {sorted(PREDICTOR_COLUMNS)}")

    return RunConfig(
        config_dir=p.parent.resolve(),
        out_dir=str(raw.get("out_dir", "out")),
        tokenizer=tokenizer,
        embedding=embedding,
        kl=kl,
        corpora=tuple(corpora),
        external_embeddings=raw.get("external_embeddings"),
        scores_path=scores_path,
        scores_metric=scores_metric,
        transport=transport,
        similarity_source=sim_source,
        similarity_targets=sim_targets,
        predictors=tuple(predictors),
    )


# ---------------------------------------------------------------- io helpers


@contextmanager
def _run_lock(out_dir: Path) -> Iterator[None]:
    """Advisory lock file guarding concurrent runs on one output directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output directory is locked by another run: {lock_path} exists; "
            "remove the file if that run is no longer alive"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except FileNotFoundError:
            pass


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _meta_comment(config_hash: str) -> str:
    return f"#config_hash={config_hash},tool_version={__version__}\r\n"


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


def _load_json(path: Path, stage: str) -> dict[str, Any]:
    if not path.is_file():
        raise ConfigError(f"missing {path.name}; run the {stage} stage first")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupt artifact {path.name}: {exc.msg}") from exc


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
    manifest: dict[str, Any] = {"domains": {}}
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            manifest = {"domains": {}}
    domains: dict[str, Any] = dict(manifest.get("domains", {}))

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
            corpus_file = cache / f"corpus-{_slug(spec.domain_id)}.json"
            profile_file = cache / f"profile-{_slug(spec.domain_id)}.json"
            entry = domains.get(spec.domain_id)
            if (
                entry
                and entry.get("input_hash") == input_hash
                and entry.get("tokenizer_hash") == cfg.tokenizer.config_hash()
                and entry.get("embedding_hash") == emb_hash
                and corpus_file.is_file()
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
            _write_text(corpus_file, corpus_to_json(corpus))
            _write_text(profile_file, _dump_json(
                {"config_hash": config_hash, "tool_version": __version__, "profile": profile_to_dict(profile)}
            ))
            domains[spec.domain_id] = {
                "input_hash": input_hash,
                "tokenizer_hash": cfg.tokenizer.config_hash(),
                "embedding_hash": emb_hash,
                "corpus_file": corpus_file.name,
                "profile_file": profile_file.name,
                "path": spec.path,
                "documents": len(corpus.documents),
                "tokens": corpus.token_count,
                "skipped": corpus.provenance.skipped,
            }
            changed = True
            click.echo(f"ingested: {spec.domain_id} ({len(corpus.documents)} documents, {corpus.token_count} tokens)")
        except (ConfigError, ParseError, ComputationError) as exc:
            failures.append((spec.domain_id, exc))
            click.echo(f"failed: {spec.domain_id}: {exc}", err=True)

    if changed:
        _write_text(manifest_path, _dump_json(
            {"config_hash": config_hash, "tool_version": __version__,
             "domains": {k: domains[k] for k in sorted(domains)}}
        ))
    if failures:
        ids = ", ".join(d for d, _ in failures)
        if all(isinstance(e, ConfigError) for _, e in failures):
            raise ConfigError(f"ingest failed for: {ids}")
        raise ParseError(f"ingest failed for: {ids}")


def _load_profile(cfg: RunConfig, domain_id: str) -> DomainProfile:
    path = cfg.out_path / "cache" / f"profile-{_slug(domain_id)}.json"
    if not path.is_file():
        raise ConfigError(f"no cached profile for domain {domain_id!r}; run the ingest stage first")
    payload = _load_json(path, "ingest")
    if "profile" not in payload:
        raise ParseError(f"corrupt profile artifact for domain {domain_id!r}")
    return profile_from_dict(payload["profile"])


def cmd_similarity(cfg: RunConfig) -> None:
    _require(len(cfg.corpora) > 0, "no corpora configured")
    source_id = cfg.similarity_source or cfg.corpora[0].domain_id
    target_ids = list(cfg.similarity_targets) if cfg.similarity_targets is not None else [
        c.domain_id for c in cfg.corpora
    ]
    known = {c.domain_id for c in cfg.corpora}
    for d in [source_id, *target_ids]:
        _require(d in known, f"similarity references unknown domain {d!r}")

    source = _load_profile(cfg, source_id)
    targets = [_load_profile(cfg, t) for t in target_ids]
    records = similarity_table(source, targets, cfg.kl)

    config_hash = cfg.config_hash()
    out = cfg.out_path
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.source_id, r.target_id, repr(r.lexical_difference),
                         repr(r.cosine_distance), repr(r.kl_divergence)])
    _write_text(out / "similarity.csv", _meta_comment(config_hash) + buf.getvalue())
    _write_text(out / "similarity.json", _dump_json({
        "config_hash": config_hash,
        "tool_version": __version__,
        "records": [r.to_dict() for r in records],
    }))
    click.echo(f"similarity: {len(records)} record(s) from {source_id!r}")


def cmd_transport(cfg: RunConfig) -> None:
    _require(cfg.scores_path is not None, "no score table configured (scores.path)")
    _require(cfg.transport is not None, "no transport block configured")
    spec = cfg.transport
    table = load_score_table(cfg.resolve(cfg.scores_path), metric_name=cfg.scores_metric)
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require(len(systems) > 0, f"score table has no systems for task {spec.task!r}")

    reports: list[TransportReport] = []
    for system in systems:
        reports.append(
            build_report(
                table,
                system,
                spec.task,
                spec.source,
                spec.targets,
                bias_corrected=spec.bias_corrected,
                groups=spec.groups or None,
            )
        )

    config_hash = cfg.config_hash()
    out = cfg.out_path
    _write_text(out / "transport.json", _dump_json({
        "config_hash": config_hash,
        "tool_version": __version__,
        "reports": [report_to_dict(r) for r in reports],
    }))
    text = render_report_text(reports, group_order=list(spec.groups) if spec.groups else None)
    header = f"# task={spec.task} metric={table.metric_name}\n# config_hash={config_hash} tool_version={__version__}\n"
    _write_text(out / "transport.txt", header + text)
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
    _require(cfg.scores_path is not None, "no score table configured (scores.path)")
    _require(cfg.transport is not None, "no transport block configured (fit needs its task and systems)")
    out = cfg.out_path
    sim = _load_json(out / "similarity.json", "similarity")
    records = sim.get("records", [])
    _require(isinstance(records, list) and records, "similarity.json has no records")
    table = load_score_table(cfg.resolve(cfg.scores_path), metric_name=cfg.scores_metric)
    spec = cfg.transport
    systems = list(spec.systems) if spec.systems is not None else table.systems(spec.task)
    _require_distinct_slugs(systems, "systems")
    percent = cfg.scores_metric.lower() in PERCENT_METRICS
    by_domain = {c.domain_id: c for c in cfg.corpora}

    config_hash = cfg.config_hash()
    summary_fits: dict[str, Any] = {}
    skipped: list[dict[str, Any]] = []
    mae_by_predictor: dict[str, list[float]] = {p: [] for p in cfg.predictors}

    for system in systems:
        for predictor in cfg.predictors:
            column = PREDICTOR_COLUMNS[predictor]
            points = _join_points(by_domain, records, table, system, spec.task, column)
            if len(points) < 3:
                skipped.append({"system": system, "predictor": predictor, "points": len(points)})
                click.echo(
                    f"warning: skipping fit for {system}/{predictor}: "
                    f"only {len(points)} joinable point(s), need 3",
                    err=True,
                )
                continue
            model = fit_curve(points, predictor_name=column, percent_scale=percent)
            stem = f"fit-{_slug(system)}-{predictor}"
            _write_text(out / f"{stem}.json", _dump_json({
                "config_hash": config_hash,
                "tool_version": __version__,
                "system": system,
                "predictor": predictor,
                "metric": table.metric_name,
                "model": model.to_dict(),
                "points": [[x, y] for x, y in sorted(points)],
            }))
            x_max = max(x for x, _ in points)
            curve = curve_points(model, x_max if x_max > 0 else 1.0)
            cbuf = io.StringIO()
            cwriter = csv.writer(cbuf)
            cwriter.writerow([column, "predicted_score"])
            for xv, yv in curve:
                cwriter.writerow([repr(xv), repr(yv)])
            _write_text(out / f"curve-{_slug(system)}-{predictor}.csv", _meta_comment(config_hash) + cbuf.getvalue())
            summary_fits.setdefault(system, {})[predictor] = {
                "a": model.a, "b": model.b, "c": model.c,
                "sse": model.sse, "mae": model.mae, "n": model.n_points,
                "file": f"{stem}.json",
            }
            mae_by_predictor[predictor].append(model.mae)
            click.echo(f"fit: {system}/{predictor} mae={model.mae:.4f} over {model.n_points} point(s)")

    _write_text(out / "fit_summary.json", _dump_json({
        "config_hash": config_hash,
        "tool_version": __version__,
        "metric": table.metric_name,
        "fits": {k: summary_fits[k] for k in sorted(summary_fits)},
        "skipped": sorted(skipped, key=lambda s: (s["system"], s["predictor"])),
        "mean_mae": {
            p: (sum(v) / len(v) if v else None) for p, v in sorted(mae_by_predictor.items())
        },
    }))
    click.echo(f"fit: {sum(len(v) for v in summary_fits.values())} model(s), {len(skipped)} skipped")


def cmd_predict(model_path: Path, x: float) -> None:
    payload = _load_json(model_path, "fit")
    data = payload.get("model", payload)
    try:
        model = FitModel.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"corrupt model file {model_path.name}: {exc}") from exc
    click.echo(repr(predict(model, x)))


def cmd_report(cfg: RunConfig, allow_partial: bool = False) -> None:
    out = cfg.out_path
    config_hash = cfg.config_hash()
    sections: dict[str, Any] = {}
    missing: list[str] = []

    for name, stage in (("similarity", "similarity"), ("transport", "transport"), ("fit_summary", "fit")):
        path = out / f"{name}.json"
        if path.is_file():
            payload = _load_json(path, stage)
            payload.pop("config_hash", None)
            payload.pop("tool_version", None)
            sections[name] = payload
        else:
            missing.append(f"{name}.json (run the {stage} stage)")
            sections[name] = {"status": "absent"}
    if missing and not allow_partial:
        raise ConfigError("missing stage outputs: " + "; ".join(missing))

    _write_text(out / "report.json", _dump_json({
        "config_hash": config_hash,
        "tool_version": __version__,
        "similarity": sections["similarity"],
        "transport": sections["transport"],
        "fits": sections["fit_summary"],
    }))

    lines: list[str] = []
    lines.append("domain transport report")
    lines.append(f"config_hash={config_hash} tool_version={__version__}")
    lines.append("")
    lines.append("[similarity]")
    sim = sections["similarity"]
    if "records" in sim:
        lines.append("  ".join(CSV_COLUMNS))
        for rec in sim["records"]:
            lines.append("  ".join([
                rec["source_id"], rec["target_id"],
                "%.6f" % rec["lexical_difference"],
                "%.6f" % rec["cosine_distance"],
                "%.6f" % rec["kl_divergence"],
            ]))
    else:
        lines.append("absent")
    lines.append("")
    lines.append("[transport]")
    tr = sections["transport"]
    if "reports" in tr:
        txt_path = out / "transport.txt"
        if txt_path.is_file():
            body = [ln for ln in txt_path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
            lines.extend(body)
        else:
            for rep in tr["reports"]:
                lines.append(f"{rep['system']}: tau_p={rep['tau_p']:.6f} variation={rep['variation']}")
    else:
        lines.append("absent")
    lines.append("")
    lines.append("[fit]")
    fits = sections["fit_summary"]
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
    _write_text(out / "report.txt", "\n".join(lines) + "\n")

    # joined scatter data per predictor, for external plotting
    if "fits" in fits:
        for predictor in cfg.predictors:
            rows: list[list[str]] = []
            for system in sorted(fits["fits"]):
                entry = fits["fits"][system].get(predictor)
                if entry is None:
                    continue
                fit_payload = _load_json(out / entry["file"], "fit")
                for x, y in fit_payload.get("points", []):
                    rows.append([system, repr(float(x)), repr(float(y))])
            if rows:
                pbuf = io.StringIO()
                pwriter = csv.writer(pbuf)
                pwriter.writerow(["system", PREDICTOR_COLUMNS[predictor], "score"])
                pwriter.writerows(rows)
                _write_text(out / f"plot-{predictor}.csv", _meta_comment(config_hash) + pbuf.getvalue())
    click.echo("report written")


# ---------------------------------------------------------------- click wiring


def _apply_overrides(
    cfg: RunConfig,
    out_dir: str | None,
    seed: int | None,
    kl_direction: str | None,
    kl_epsilon: float | None,
    bias_corrected: bool | None,
) -> RunConfig:
    if out_dir is not None:
        cfg.out_dir = out_dir
    if seed is not None:
        cfg.embedding = EmbeddingConfig(
            dimension=cfg.embedding.dimension,
            seed=seed,
            weighting=cfg.embedding.weighting,
            per_document=cfg.embedding.per_document,
        )
    if kl_direction is not None or kl_epsilon is not None:
        cfg.kl = KLSettings(
            epsilon=kl_epsilon if kl_epsilon is not None else cfg.kl.epsilon,
            direction=kl_direction if kl_direction is not None else cfg.kl.direction,
            method=cfg.kl.method,
        )
    if bias_corrected is not None and cfg.transport is not None:
        t = cfg.transport
        cfg.transport = TransportSpec(
            task=t.task, source=t.source, targets=t.targets,
            systems=t.systems, groups=t.groups, bias_corrected=bias_corrected,
        )
    return cfg


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
    """Parse corpora and cache tokenized forms and domain profiles."""
    cfg = _apply_overrides(load_config(config_path), out_dir, seed, None, None, None)
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
    cfg = _apply_overrides(load_config(config_path), out_dir, None, kl_direction, kl_epsilon, None)
    if source_id is not None:
        cfg.similarity_source = source_id
    if target_ids is not None:
        parsed = tuple(t.strip() for t in target_ids.split(",") if t.strip())
        _require(len(parsed) > 0, "--targets must name at least one domain id")
        cfg.similarity_targets = parsed
    with _run_lock(cfg.out_path):
        cmd_similarity(cfg)


@_cli.command("transport")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--bias-corrected/--no-bias-corrected", "bias_corrected", default=None,
              help="Override the small-sample bias correction for the variation measure.")
def _transport_cmd(config_path: str, out_dir: str | None, bias_corrected: bool | None) -> None:
    """Compute transport ratios and variation from the score table."""
    cfg = _apply_overrides(load_config(config_path), out_dir, None, None, None, bias_corrected)
    with _run_lock(cfg.out_path):
        cmd_transport(cfg)


@_cli.command("fit")
@_CONFIG_OPTION
@_OUT_OPTION
@click.option("--predictor", "predictors", multiple=True, type=click.Choice(sorted(PREDICTOR_COLUMNS)),
              help="Restrict fitting to the named predictor(s); repeatable.")
def _fit_cmd(config_path: str, out_dir: str | None, predictors: tuple[str, ...]) -> None:
    """Fit decay curves of score against each similarity measure."""
    cfg = _apply_overrides(load_config(config_path), out_dir, None, None, None, None)
    if predictors:
        cfg.predictors = tuple(dict.fromkeys(predictors))
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
    cfg = _apply_overrides(load_config(config_path), out_dir, None, None, None, None)
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

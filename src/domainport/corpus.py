"""Corpus ingestion: tokenization and format parsers.

Three input formats are supported (CoNLL token-per-line, JSON-lines
with text fields, plain text) plus a tokenized JSON interchange form
(:func:`to_interchange` / :func:`parse_interchange`) for corpora
tokenized elsewhere. All parsers produce the same :class:`Corpus`: a
domain id, the tokenizer config and each document's tokens as a tuple, so
later stages never care where the text came from.

The three text parsers only split their input into unit texts: a CoNLL
document's tokens or a JSON-lines record's text fields joined by single
spaces, or a plain-text line or paragraph. One document loop,
:func:`_corpus`, tokenizes the unit texts, counts and logs the units
without tokens, refuses an empty corpus and builds the :class:`Corpus`. It
takes the unit texts in chunks of about ``TOKENIZE_CHUNK_CHARS`` characters,
so no parser holds a second copy of a whole corpus.

In the default mode (``unicode_word`` with ``strip_punctuation``) ASCII text
is tokenized by one byte-table pass: ``bytes.translate`` maps ``[0-9A-Za-z_]``
to itself (lowered when lowercasing is on) and every other byte to a
space, and ``split`` returns exactly the regex's word runs. :func:`_corpus`
makes one such pass over an all-ASCII chunk and cuts each unit's words out
of it by character offsets; ``translate`` maps byte to byte, so they are the
unit's own. The check is per chunk: a chunk with any non-ASCII unit goes unit
by unit through :func:`tokenize`, where the regex runs on each non-ASCII
text, as it does in the other modes. There, with lowercasing on, an ASCII
text is lowered once before it is split and any other text token by token
after, so a token's case mapping never depends on its neighbours.

A JSON-lines line that is one JSON value and nothing else is read by the C
scanner ``json.loads`` itself uses; any other line goes through ``json.loads``,
so every record and every error message is that of ``json.loads``.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import asdict, dataclass
from itertools import islice
from typing import IO, Any, Iterable, Iterator, Sequence

from .errors import ConfigError, ParseError, encodes_as_utf8, may_hold_surrogates, read_text
from .hashing import fields_from_dict, stable_hash

SPLIT_MODES = ("whitespace", "unicode_word")

# word runs, or single non-space punctuation characters
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
# the word runs alone: _TOKEN_RE's tokens without its punctuation
_WORD_RE = re.compile(r"\w+", re.UNICODE)
_EDGE_PUNCT_RE = re.compile(r"^\W+|\W+$", re.UNICODE)
# On ASCII, \w is [0-9A-Za-z_]: these bytes map to themselves, every other byte to a space.
_WORD_CHARS = (string.ascii_letters + string.digits + "_").encode("ascii")
_WORD_BYTES = bytes(b if b in _WORD_CHARS else 0x20 for b in range(256))
_LOWER_WORD_BYTES = _WORD_BYTES.lower()
TOKENIZE_CHUNK_CHARS = 1 << 16  # unit text characters that _corpus tokenizes as one batch
# the decoder json.loads uses by default; its scan_once is the C scanner
_JSON_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class TokenizerConfig:
    """Controls how raw text becomes tokens.

    ``unicode_word`` mode extracts word-character runs and treats each
    punctuation character as its own token; ``whitespace`` mode splits
    on whitespace only. ``strip_punctuation`` drops punctuation tokens
    (or strips token edges in whitespace mode). ``ngram_order`` > 1
    makes feature extraction use token n-grams instead of unigrams.
    """

    lowercase: bool = True
    split_mode: str = "unicode_word"
    ngram_order: int = 1
    strip_punctuation: bool = True

    def __post_init__(self) -> None:
        if self.split_mode not in SPLIT_MODES:
            raise ConfigError(
                f"unknown split_mode {self.split_mode!r}; expected one of {SPLIT_MODES}"
            )
        if not isinstance(self.ngram_order, int) or isinstance(self.ngram_order, bool) or self.ngram_order < 1:
            raise ConfigError("ngram_order must be an integer >= 1")
        for name in ("lowercase", "strip_punctuation"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"tokenizer {name} must be true or false")

    def config_hash(self) -> str:
        return stable_hash(asdict(self))


@dataclass(frozen=True)
class Corpus:
    """A tokenized corpus: each document is the tuple of its tokens, in input order."""

    domain_id: str
    documents: tuple[tuple[str, ...], ...]
    tokenizer_config: TokenizerConfig

    def __post_init__(self) -> None:
        if not self.domain_id:
            raise ConfigError("domain_id must be non-empty")

    @property
    def token_count(self) -> int:
        return sum(map(len, self.documents))


def _word_table(cfg: TokenizerConfig) -> bytes | None:
    """The byte table that tokenizes ASCII text in ``cfg``'s mode, or None when the mode needs the regex."""
    if cfg.split_mode == "unicode_word" and cfg.strip_punctuation:
        return _LOWER_WORD_BYTES if cfg.lowercase else _WORD_BYTES
    return None


def _chunks(texts: Iterable[str]) -> Iterator[list[str]]:
    """``texts`` in order, as lists of about TOKENIZE_CHUNK_CHARS characters (a longer text fills one alone)."""
    chunk: list[str] = []
    size = 0
    for text in texts:
        chunk.append(text)
        size += len(text)
        if size >= TOKENIZE_CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Split ``text`` into tokens according to ``config``.

    Empty tokens never appear in the output; with lowercasing enabled
    no output token contains an uppercase character. ASCII text is
    lowered before it is split: on ASCII, lowering changes no character's
    class, so the tokens are those of lowering each one.
    """
    cfg = config or TokenizerConfig()
    table = _word_table(cfg)
    if table is not None and text.isascii():
        return text.encode("ascii").translate(table).decode("ascii").split()
    lower_text = cfg.lowercase and text.isascii()
    if lower_text:
        text = text.lower()
    if cfg.split_mode == "whitespace":
        parts = text.split()
        if cfg.strip_punctuation:
            # a token of punctuation alone strips to nothing
            parts = [q for q in (_EDGE_PUNCT_RE.sub("", p) for p in parts) if q]
    else:
        # neither pattern matches an empty string
        parts = (_WORD_RE if cfg.strip_punctuation else _TOKEN_RE).findall(text)
    if cfg.lowercase and not lower_text:
        # per token: lowering the whole text first can split a word ("İ" lowers to "i" + U+0307)
        parts = [p.lower() for p in parts]
    return parts


def _corpus(texts: Iterable[str], config: TokenizerConfig | None, domain_id: str, source: str, empty: str,
            skipped_units: str) -> Corpus:
    """The corpus of ``texts``: one document per unit text, tokenized in chunks of about TOKENIZE_CHUNK_CHARS.

    A unit with no tokens is skipped and counted, and the count is logged
    as ``<source>: <count> <skipped_units>``. A corpus with no document is
    refused as ``empty corpus: <empty>``.
    """
    cfg = config or TokenizerConfig()
    table = _word_table(cfg)
    documents = []
    skipped = 0
    for chunk in _chunks(texts):
        words = None
        if table is not None and all(map(str.isascii, chunk)):
            # translate maps byte to byte, so a unit's slice of the chunk's translation is its own
            words = "".join(chunk).encode("ascii").translate(table).decode("ascii")
        start = 0
        for text in chunk:
            end = start + len(text)
            tokens = tokenize(text, cfg) if words is None else words[start:end].split()
            if tokens:
                documents.append(tuple(tokens))
            else:
                skipped += 1
            start = end
    if not documents:
        raise ParseError(f"empty corpus: {empty}", source=source)
    if skipped:
        import logging  # here, not at the top: its import would cost every run that skips nothing

        logging.getLogger(__name__).warning("%s: %d %s", source, skipped, skipped_units)
    return Corpus(domain_id, tuple(documents), cfg)


def _runs_between(items: list[str], marker: str) -> Iterator[list[str]]:
    """The runs of ``items`` before, between and after the occurrences of ``marker``."""
    start = 0
    while True:
        try:
            stop = items.index(marker, start)
        except ValueError:
            yield items[start:]
            return
        yield items[start:stop]
        start = stop + 1


def parse_conll(
    data: bytes | str | IO[bytes],
    config: TokenizerConfig | None = None,
    *,
    domain_id: str = "corpus",
    source: str = "<stream>",
) -> Corpus:
    """Parse CoNLL-style column data: one token per line, first column used.

    Blank lines separate sentences and are ignored for document
    boundaries; ``-DOCSTART-`` markers split documents. Without any
    marker the whole input is a single document.
    """
    text, _ = read_text(data, "input", source)
    # the first column of every non-blank line; splitlines' list lives only as long as this comprehension
    firsts = [line.partition("\t")[0].strip() if "\t" in line else line.split(None, 1)[0]
              for line in filter(str.strip, text.splitlines())]
    if "" in firsts:
        nonblank = (line_no for line_no, line in enumerate(text.splitlines(), start=1) if line.strip())
        line_no = next(islice(nonblank, firsts.index(""), None))
        raise ParseError("malformed line: empty token column", line=line_no, source=source)
    # one call per document: no token spans the joining space, in any split mode
    texts = (" ".join(raw_tokens) for raw_tokens in _runs_between(firsts, "-DOCSTART-") if raw_tokens)
    return _corpus(texts, config, domain_id, source, "no tokens found",
                   "document(s) skipped (no tokens after tokenization)")


def parse_jsonl_pairs(
    data: bytes | str | IO[bytes],
    config: TokenizerConfig | None = None,
    *,
    fields: Sequence[str] = ("sentence1", "sentence2"),
    domain_id: str = "corpus",
    source: str = "<stream>",
) -> Corpus:
    """Parse JSON-lines records, concatenating the named text fields.

    Each line must be a JSON object. A record missing every named field
    (or producing no tokens) is skipped with a counted warning rather
    than aborting the parse. A text field that holds a lone surrogate is
    a :class:`ParseError`.
    """
    if not fields:
        raise ConfigError("fields must name at least one JSON key")
    text, _ = read_text(data, "input", source)
    surrogates = may_hold_surrogates(text)

    def texts() -> Iterator[str]:  # each record's text, read as _corpus asks for its next chunk
        scan = _JSON_DECODER.scan_once
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            # the C scanner alone reads a line that is one JSON value and nothing else;
            # any other line goes to json.loads, for its result or its exact error
            try:
                record, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc.msg}", line=line_no, source=source) from exc
            if not isinstance(record, dict):
                raise ParseError("line is not a JSON object", line=line_no, source=source)
            # one call per record: no token spans the joining space, in any split mode;
            # a record without the fields is an empty text, which has no tokens
            unit = " ".join([record[f] for f in fields if isinstance(record.get(f), str)])
            if surrogates and not encodes_as_utf8(unit):
                raise ParseError("text holds a lone surrogate, which is not valid UTF-8", line=line_no, source=source)
            yield unit

    return _corpus(texts(), config, domain_id, source, "no usable records",
                   "record(s) skipped (missing fields or no tokens)")


def parse_plaintext(
    data: bytes | str | IO[bytes],
    config: TokenizerConfig | None = None,
    *,
    unit: str = "line",
    domain_id: str = "corpus",
    source: str = "<stream>",
) -> Corpus:
    """Parse plain text, one document per non-empty line (or paragraph)."""
    if unit not in ("line", "paragraph"):
        raise ConfigError(f"unknown text unit {unit!r}; expected 'line' or 'paragraph'")
    text, _ = read_text(data, "input", source)
    if unit == "line":
        segments = [ln for ln in text.splitlines() if ln.strip()]
    else:
        segments = [seg for seg in re.split(r"\n\s*\n", text) if seg.strip()]
    return _corpus(segments, config, domain_id, source, "no non-empty text",
                   "segment(s) skipped (no tokens after tokenization)")


def to_interchange(corpus: Corpus) -> dict[str, Any]:
    """Tokenized interchange form: domain id, tokenizer config, token lists."""
    return {
        "domain_id": corpus.domain_id,
        "tokenizer_config": asdict(corpus.tokenizer_config),
        "documents": [list(tokens) for tokens in corpus.documents],
    }


def parse_interchange(
    data: bytes | str | IO[bytes] | dict[str, Any],
    *,
    source: str = "<stream>",
) -> Corpus:
    """Load a corpus previously serialized with :func:`to_interchange`.

    Tokens are taken verbatim; no re-tokenization happens, so a
    round trip preserves domain_id and documents exactly. A token that
    holds a lone surrogate is a :class:`ParseError`.
    """
    if isinstance(data, dict):
        obj, surrogates = data, True
    else:
        text, _ = read_text(data, "input", source)
        surrogates = may_hold_surrogates(text)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", source=source) from exc
    if not isinstance(obj, dict):
        raise ParseError("interchange payload must be a JSON object", source=source)
    missing = {"domain_id", "tokenizer_config", "documents"} - set(obj)
    if missing:
        raise ParseError(f"interchange payload missing keys: {sorted(missing)}", source=source)
    try:
        cfg = fields_from_dict(TokenizerConfig, obj["tokenizer_config"], "tokenizer")
    except ConfigError as exc:  # not an object, an unknown key or a bad value
        raise ParseError(f"invalid tokenizer_config: {exc}", source=source) from exc
    docs_field = obj["documents"]
    if not isinstance(docs_field, list):
        raise ParseError("documents must be a list of token lists", source=source)
    documents = []
    for i, toks in enumerate(docs_field):
        if not isinstance(toks, list) or not all(isinstance(t, str) and t for t in toks):
            raise ParseError(f"document {i} is not a list of non-empty strings", source=source)
        if surrogates and not all(map(encodes_as_utf8, toks)):
            raise ParseError(f"document {i} has a token with a lone surrogate, which is not valid UTF-8", source=source)
        documents.append(tuple(toks))
    if not documents:
        raise ParseError("empty corpus: interchange payload has no documents", source=source)
    return Corpus(str(obj["domain_id"]), tuple(documents), cfg)

"""Exception types shared across the toolkit, and the one input reader.

The CLI maps these onto process exit codes: ConfigError -> 1,
ParseError -> 2, ComputationError -> 3, an ``OSError`` (a full disk,
an unwritable path) -> 4, and an interrupt (Ctrl-C) -> 130.

:func:`read_text` turns every input the toolkit reads (a corpus, the
score table, external embeddings, the config and the stage artifacts)
into text, so a missing file and bytes that are not UTF-8 fail the same
way whatever the input is. Its text holds no lone surrogate (a code point
in U+D800..U+DFFF standing alone), which no UTF-8 encoder takes; JSON's
``\\ud800``..``\\udfff`` escapes decode to one, so each reader of JSON
refuses a string that holds one where :func:`may_hold_surrogates` says it can.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import IO

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class DomainportError(ValueError):
    """Base class for all toolkit errors."""


class ConfigError(DomainportError):
    """Invalid configuration or command usage."""


class ParseError(DomainportError):
    """Malformed or inconsistent input data.

    Carries an optional 1-based line number and byte offset so messages
    can point at the offending location.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        offset: int | None = None,
        source: str | None = None,
    ) -> None:
        where = []
        if source is not None:
            where.append(source)
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        full = f"{': '.join(where)}: {message}" if where else message
        super().__init__(full)
        self.line = line
        self.offset = offset
        self.source = source


class ComputationError(DomainportError):
    """A numeric operation has no defined result for the given input."""


def read_file(path: Path, missing: str) -> bytes:
    """The bytes of file ``path``; a missing file is a :class:`ConfigError` with message ``missing``."""
    if not path.is_file():
        raise ConfigError(missing)
    return path.read_bytes()


def read_text(data: str | bytes | Path | IO[bytes], what: str, source: str = "<stream>") -> tuple[str, str]:
    """The text of ``data`` and the source label its errors name.

    A :class:`~pathlib.Path` is a file to read, labelled with its path; a
    missing file is a :class:`ConfigError`. A ``str``, ``bytes`` or binary
    stream is the content itself, labelled ``source``. Bytes that are not
    UTF-8, and a ``str`` that holds a lone surrogate, are a :class:`ParseError`
    naming ``what``.
    """
    if isinstance(data, Path):
        source = str(data)
        data = read_file(data, f"{what} file not found: {data}")
    elif not isinstance(data, (str, bytes)):
        data = data.read()
    if isinstance(data, str):
        if not data.isascii() and not encodes_as_utf8(data):
            raise ParseError(f"{what} holds a lone surrogate, which is not valid UTF-8", source=source)
        return data, source
    try:
        return data.decode("utf-8"), source
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8", offset=exc.start, source=source) from exc


def encodes_as_utf8(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, so that UTF-8 encodes it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def may_hold_surrogates(text: str) -> bool:
    """Whether a string that ``json.loads`` reads from ``text``, a text of :func:`read_text`, can hold a lone surrogate.

    One search for a ``\\ud800``..``\\udfff`` escape; a valid pair of them makes it true too.
    """
    return _SURROGATE_ESCAPE.search(text) is not None

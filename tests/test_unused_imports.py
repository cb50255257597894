"""Every module-level import in the package is used, and every name it exports is bound.

Each module, subpackages included, is parsed with ``ast``, not imported.
A name counts as used when the module reads it anywhere, including in
annotations, or lists it in ``__all__``. An import line marked
``# noqa`` is skipped: it keeps a name alive for code outside the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import domainport

PACKAGE = Path(domainport.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_name_in_all_is_bound():
    assert [name for name in domainport.__all__ if not hasattr(domainport, name)] == []


def test_the_check_finds_an_unused_import_and_honours_noqa_and_all():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import json.decoder",
        "from typing import Any, Sequence",
        "from .hashing import fnv1a_64  # noqa: F401",
        "from .errors import ConfigError",
        "__all__ = ['ConfigError']",
        "def f(x: Sequence[int]) -> None:",
        "    json.decoder.JSONDecodeError",
    ])
    assert unused_imports(source) == ["os (line 2)", "Any (line 4)"]

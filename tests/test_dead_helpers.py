"""Every module-level private name in the package is read somewhere in it.

Each module, subpackages included, is parsed with ``ast``, not imported.
A private name (a leading underscore, not a dunder) that a module binds at
its top level, by ``def``, ``class`` or assignment, counts as read
when any module of the package loads it as a name, reads it as an
attribute (``cli._slug``) or imports it. Code outside the package (tests,
benchmarks) does not count: a helper only they call is dead in the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

import domainport

PACKAGE = Path(domainport.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree: ast.Module) -> list[str]:
    """The private names that ``tree``'s top-level statements bind."""
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if _private(name)]


def read_names(tree: ast.Module) -> set[str]:
    """Every name that ``tree`` loads, reads as an attribute or imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private module-level name of ``sources`` (module -> source) that none of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items() for name in defined_names(tree) if name not in read]


def test_every_private_module_level_name_is_read_in_the_package():
    sources = {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(sources) > 5
    assert dead_helpers(sources) == []


def test_the_check_finds_a_dead_helper_and_counts_reads_from_other_modules():
    sources = {
        "a.py": "\n".join([
            "_LIMIT = 3",
            "_UNUSED: int = 4",
            "__version__ = '1'",
            "def _helper(): return _LIMIT",
            "def _orphan(): pass",
            "class _Kept: pass",
            "def public(): return _helper()",
        ]),
        "b.py": "\n".join([
            "from .a import _Kept",
            "import a",
            "_written = 1",
            "x = a._LIMIT",
        ]),
    }
    assert dead_helpers(sources) == ["a.py: _UNUSED", "a.py: _orphan", "b.py: _written"]

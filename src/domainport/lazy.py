"""numpy, imported on first attribute access.

``hashing``, ``features``, ``divergence`` and ``regression`` do
``from .lazy import np``, so numpy's own import runs only in a process
that computes with an array: a stage that parses config, checks stamps,
reads the score table or writes JSON never pays for it. numpy stays a
hard dependency; an absent numpy fails at import time, as an ``import``
statement does.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy_module(name: str) -> ModuleType:
    """Module ``name``, executed on its first attribute access.

    A module already in ``sys.modules`` is returned as it is. A module
    that cannot be found raises ``ModuleNotFoundError`` now.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_module("numpy")

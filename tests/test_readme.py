"""Every ``from domainport... import ...`` line in README's python code blocks runs.

A public name that a change removes can then not stay behind in the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_readme_import_line_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if re.match(r"from domainport\b", line)]
    assert lines
    for line in lines:
        exec(line, {})  # an ImportError names the module and the missing name

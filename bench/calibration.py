"""A fixed CPU yardstick, so that times stay comparable when machine speed drifts.

On a shared machine the speed one process gets can change by a factor of
two within minutes (other tenants on the same cores, frequency scaling).
The pipeline and this loop slow down together, so a pass's CPU time over
the loop's CPU time, measured between the pass's stages, holds steady.
The benchmark reports times in reference seconds: that ratio times
``REFERENCE_S``, about the loop's median CPU time on the machine the
benchmark was written on (2-core Intel Xeon VM, Python 3.11).

The loop uses only the standard library and none of the program's code,
so no change to the program can move it.
"""

from __future__ import annotations

import json
import re
import time

REFERENCE_S = 0.05
_TEXT = " ".join(f"w{(i * 7919) % 3001} x{i % 97}," for i in range(4000))
_WORD = re.compile(r"\w+|[^\w\s]")


def yardstick() -> float:
    """CPU seconds of one fixed mix of interpreter work: hashing, counting, regex, JSON."""
    start = time.process_time()
    h = 0xCBF29CE484222325
    for byte in _TEXT.encode("ascii"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    counts: dict[str, int] = {}
    for _ in range(12):
        for token in _WORD.findall(_TEXT):
            counts[token] = counts.get(token, 0) + 1
    json.loads(json.dumps({"h": h, "counts": counts}, sort_keys=True, indent=2))
    return time.process_time() - start


def to_reference(cpu_seconds: float, yardstick_s: float) -> float:
    """``cpu_seconds`` expressed at the reference machine speed."""
    return cpu_seconds * REFERENCE_S / yardstick_s

"""A fixed pure-Python loop that gauges how fast the host runs right now.

The loop does the kinds of work simplexcut does (exact rational arithmetic,
tuple-keyed dicts, list building) but imports nothing from the package, so
a change to the package cannot move it.
"""

import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds one pass of the loop takes."""
    started = time.perf_counter()
    total = Fraction(0)
    index: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int]] = []
    for i in range(1, 2500):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        for j in range(8):
            key = (i, j)
            index[key] = index.get((i - 1, j), 0) + j
            rows.append(key)
    rows.sort(reverse=True)
    return time.perf_counter() - started

"""Host speed by a fixed reference loop.

The benchmark's host runs the same code up to about twice as slowly at
some times as at others, for seconds to minutes at a stretch, which no
amount of repetition inside one run averages away.  So every timed
interval is bracketed by two runs of a fixed pure-Python loop, and its
duration is restated at the reference speed: scaled by
``REFERENCE_S`` over the loop's mean time around it.  On a host of
steady speed this is the wall time up to a constant factor.
"""

from __future__ import annotations

import time

# the reference loop's time on the machine the benchmark was defined on
# (2-core Intel Xeon VM) at its faster speed
REFERENCE_S = 1.1e-3


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop (about 1.5 ms).  It does
    what the package does most, tuple keys, dict inserts, frozensets and a
    keyed sort, because the host's slow spells slow such code more than a
    plain arithmetic loop."""
    started = time.perf_counter()
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = frozenset((i, i + 1))
    sorted(table, key=lambda k: (k[1], -k[0]))
    return time.perf_counter() - started


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference loops, restated at the
    reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)

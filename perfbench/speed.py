"""Reference-speed time.

The machines this benchmark runs on are shared: the speed of a core
swings by up to a factor of 1.7 over seconds to minutes, as other tenants
come and go.  Raw seconds from two runs a minute apart are then not
comparable.  So the benchmark times a fixed pure-Python loop next to the
work it measures, at least every PROBE_INTERVAL seconds, and reports
every duration in reference seconds:

    reference seconds = raw seconds * REFERENCE_S / (loop time near it)

which is the raw time on a machine where the loop takes REFERENCE_S.
The loop does the kinds of work the program does (scan text character
by character, build small nested tuples and hash them into a dict,
compare nested frozen dataclasses), so both slow down together.  One
reading is itself noisy, so a call is judged by the median of the
readings within WINDOW seconds of it.
Raw seconds stay in the per-input report next to the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

# the loop's time on an uncontended 2.1 GHz Xeon core under CPython 3.11
REFERENCE_S = 0.0004
PROBE_INTERVAL = 0.1
WINDOW = 0.3


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


_TEXT = "(dt (lind (rind eind)) none ())\n" * 100


def _reference_loop() -> bool:
    words = sum(1 for ch in _TEXT if ch == "(" or ch.isalnum())
    table = {}
    for i in range(400):
        key = (i, (i + 1, (i + 2, "x")))
        table[key] = key == (i, (i + 1, (i + 2, "x")))
    a = b = words
    for i in range(30):
        a, b = _Node(a, i), _Node(b, i)
    return a == b


def reference_seconds() -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Readings of the reference loop, taken between timed calls."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []
        self.read()

    def read(self) -> None:
        self.readings.append(reference_seconds())
        self.times.append(perf_counter())

    def due(self) -> None:
        """Call before a timed call: takes a reading if the last one is
        older than PROBE_INTERVAL, so one always precedes the call."""
        if perf_counter() - self.times[-1] > PROBE_INTERVAL:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """Scale for a call that ran from start to end.  Call read()
        once after the last timed call of a batch, so a reading follows
        every call."""
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_right(self.times, end + WINDOW)
        return REFERENCE_S / statistics.median(self.readings[lo:hi])

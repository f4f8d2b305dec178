"""Host speed, measured by a fixed pure-Python loop.

The benchmark's host is a small shared VM whose speed drifts by a factor
of two or more over minutes: every process in it, this loop included,
slows down together.  Timing this loop next to each job gives the host's
speed at that moment, and ``scale`` turns a measured time into the time
it would take on a host where the loop takes ``REFERENCE_S``.  The loop
does not touch the package under test, so a change to the package moves
scaled times as much as raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.002  # the loop's time on the reference host


def _loop() -> int:
    table: dict = {}
    for i in range(4000):
        key = (i % 97, i & 255)
        table[key] = table.get(key, 0) + i
    return len(table)


def loop_seconds() -> float:
    """Time one run of the loop, with the cyclic collector paused so that
    garbage left by the program cannot make the host look slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, loop: float) -> float:
    """A time measured while the loop took `loop` seconds, at reference speed."""
    return seconds * REFERENCE_S / loop


def scaled_times(times: list[float], loops: list[float]) -> list[float]:
    """Scale job i by the median of loops[i-1:i+3]: loops[i] is timed
    before job i and loops[i+1] after it, so one loop slowed by an
    interrupt cannot skew a job."""
    out = []
    for i, t in enumerate(times):
        near = loops[max(0, i - 1): i + 3]
        out.append(scale(t, statistics.median(near)))
    return out

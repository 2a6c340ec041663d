"""Host speed reference: a fixed piece of pure-Python work, timed right
before and right after each measured operation.

The shared host's speed drifts by tens of percent, in stretches from a
fraction of a second to minutes, and whole runs can land in a slow
stretch.  lctkit's time tracks a dict-, tuple- and object-heavy loop
closely, so each operation's seconds are scaled by ``NOMINAL_S`` over
the loop's time around it.  The result reads as seconds at the host's
undisturbed speed.  On a 2-vCPU cloud VM, five minutes of alternating
the loop with a 16x4 FSM round trip gave 30 s windows whose raw medians
spread 24% (first to third quartile over median) and whose scaled
medians spread 1.5%.  The loop is the benchmark's own code, so a change
to lctkit does not move it.
"""

from __future__ import annotations

import gc
import time

# The loop's time in an undisturbed stretch on the VM above.
NOMINAL_S = 0.0014


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _work():
    totals = {}
    for i in range(3000):
        cell = _Cell((i % 97, i % 13), i)
        totals[cell.key] = totals.get(cell.key, 0) + cell.value
    return sorted(totals.items())[:3]


def sample() -> float:
    """Seconds the loop takes now, with the cyclic collector held off so
    that only the host's speed shows."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, at the nominal speed."""
    return seconds * 2 * NOMINAL_S / (before + after)

"""Spin calibration: how fast this host runs the bare event loop.

Everything else in :mod:`repro.bench` measures *simulated* quantities
(Table 1 runtimes, traffic, adaptation cost), which are deterministic and
machine-independent.  Host speed is measured by one harness, the
benchmark spine (``benchmarks/spine``, declared in ``BENCHMARK.json``),
which imports :func:`calibrate_spin` from here for its
``simcore.spin_events_per_s`` metric.
"""

from __future__ import annotations

import time

#: Events in the calibration spin loop.
SPIN_EVENTS = 100_000


def calibrate_spin(n_events: int = SPIN_EVENTS) -> float:
    """Events/second of a bare simulator executing chained no-op events.

    This is the ceiling of the event loop on this machine — heap pop,
    time advance, callback dispatch, nothing else.
    """
    from ..simcore import Simulator

    sim = Simulator()

    remaining = n_events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(1.0e-9, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return n_events / wall if wall > 0 else float("inf")

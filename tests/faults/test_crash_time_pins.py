"""Crash recovery pinned at three crash times (ROADMAP item 1's red tests).

Adaptive Jacobi 700² × 40 on 8 processes + 2 spare nodes, leave @ 1.0 s,
join @ 1.6 s, a checkpoint every 0.5 s, failure detection on, node 5
crashing.  Recovery is right at most crash times but not at all of them;
the two known-wrong outcomes are ``xfail(strict=True)`` so the fix turns
them green loudly, and the passing time is a plain test so a change to
what ``restore_checkpoint_live`` restores cannot silently regress it.
"""

import pytest

from repro.bench.harness import run_experiment
from repro.errors import SimulationError
from repro.exec import AdaptEvent, ScenarioSpec

#: A healthy run ends near 12 simulated seconds; past this the driver is
#: stuck and only heartbeats keep the event queue alive.
SIM_TIME_CEILING = 60.0


class _NeverTerminated(Exception):
    pass


def _run_with_crash_at(t: float):
    spec = ScenarioSpec(
        kernel="jacobi", params={"n": 700, "iterations": 40}, nprocs=8,
        extra_nodes=2,
        events=(AdaptEvent("leave", 1.0), AdaptEvent("join", 1.6),
                AdaptEvent("crash", t, node=5)),
        checkpoint_interval=0.5, failure_detection=True,
    )

    def install(rt):
        spec.install_events(rt)

        def ceiling():
            if not rt.finished:
                raise _NeverTerminated(f"t={rt.sim.now}")

        rt.sim.at(SIM_TIME_CEILING, ceiling)

    return run_experiment(
        spec.build_app, nprocs=spec.nprocs, adaptive=True,
        extra_nodes=spec.extra_nodes, cfg=spec.build_config(), events=install,
        runtime_kwargs={"checkpoint_interval": 0.5, "failure_detection": True},
    )


def test_crash_at_3_0_recovers_and_completes():
    res = _run_with_crash_at(3.0)
    assert len(res.recoveries) == 1
    assert res.runtime.finished
    assert 11.0 < res.runtime_seconds < 13.0


@pytest.mark.xfail(strict=True, raises=SimulationError,
                   reason="ROADMAP item 1: a restored process is asked for a "
                          "page it holds no valid copy of")
def test_crash_at_2_2_recovers_and_completes():
    try:
        res = _run_with_crash_at(2.2)
    except SimulationError as err:
        assert "holds no valid copy" in str(err)
        raise
    assert res.runtime.finished


@pytest.mark.xfail(strict=True, raises=_NeverTerminated,
                   reason="ROADMAP item 1: a waiter on the dead peer is never "
                          "released; only heartbeats keep the queue alive")
def test_crash_at_2_5_recovers_and_completes():
    res = _run_with_crash_at(2.5)
    assert res.runtime.finished

"""Crash recovery pinned at known-wrong points (ROADMAP item 1's red tests).

Adaptive Jacobi 700² × 40 on 8 processes + 2 spare nodes, leave @ 1.0 s,
join @ 1.6 s, a checkpoint every 0.5 s, failure detection on, node 5
crashing.  Recovery is right at most crash times but not at all of them;
the two known-wrong outcomes are ``xfail(strict=True)`` so the fix turns
them green loudly, and the passing time is a plain test so a change to
what ``restore_checkpoint_live`` restores cannot silently regress it.

The golden ``chaos`` plan, materialized, is the small case of the same
fault: a 0.5 s degraded port keeps pre-crash traffic in flight past the
rebuild.  Its golden row is traced, so it cannot see memory; the pins
here do.
"""

import pytest

from repro.bench.harness import run_experiment
from repro.errors import SimulationError
from repro.exec import AdaptEvent, ScenarioSpec, spec_from_preset
from repro.exec.pool import execute_spec

from ..golden import CHAOS_PLAN, MODELS

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


def _run_chaos_materialized(plan: str, model: str):
    spec = spec_from_preset(
        "tiny", "jacobi", 4, calibrated=False, materialized=True,
        extra_nodes=1, checkpoint_interval=0.02, failure_detection=True,
        fault_plan=plan, perf=MODELS[model])
    return execute_spec(spec)[0]


@pytest.mark.parametrize("model", ["flat", "tree"])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the pre-crash incarnation's traffic "
                          "outlives the rebuild; the final memory is wrong")
def test_chaos_plan_materialized_ends_verified(model):
    exp = _run_chaos_materialized(CHAOS_PLAN, model)
    assert len(exp.recoveries) == 1
    assert exp.app.verify(rtol=1e-7, atol=1e-9)


@pytest.mark.xfail(strict=True, raises=SimulationError,
                   reason="ROADMAP item 1: a reply to a page request from a "
                          "node declared dead is an uncaught handler failure")
def test_degrade_then_crash_recovers_and_verifies():
    try:
        exp = _run_chaos_materialized("0.01 degrade 1 0.5\n0.03 crash 3", "flat")
    except SimulationError as err:
        assert "'P0.h.page_req' failed at t=1.687" in str(err)
        assert "message to detached node 1" in str(err)
        raise
    assert exp.app.verify(rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("plan", [
    "0.01 degrade 1 0.5", "0.03 crash 3", "0.02 duplicate 0.2\n0.03 crash 3",
], ids=["degrade", "crash", "duplicate+crash"])
def test_chaos_plan_without_degrade_or_crash_verifies(plan):
    exp = _run_chaos_materialized(plan, "flat")
    assert len(exp.recoveries) == 1
    assert exp.app.verify(rtol=1e-7, atol=1e-9)

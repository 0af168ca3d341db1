"""End-to-end crash recovery: detect, rebuild, restore, replay.

The acceptance bar: a fail-stop slave crash mid-region, with periodic
checkpointing, is detected by heartbeat timeout; the *same* runtime
recovers from the last checkpoint, completes, and the kernel result is
bitwise identical to a fault-free run.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.config import FaultParams, SystemConfig
from repro.errors import RecoveryError
from repro.exec import AdaptEvent, ScenarioSpec
from repro.faults import FaultInjector, parse_plan

from ..helpers import build_adaptive
from ..core.test_checkpoint import counter_program

N_ITER = 20


def fault_free_grid(n_iter=N_ITER):
    sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                   checkpoint_interval=0.1)
    final = {}
    prog, *_ = counter_program(rt, n_iter=n_iter, final=final)
    rt.run(prog)
    return final["grid"]


class TestSlaveCrashRecovery:
    def _crash_run(self, crash_at, **kw):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True, **kw)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        victim = rt.team.node_of(1)
        sim.schedule(crash_at, lambda: rt.inject_crash(victim))
        res = rt.run(prog)
        return rt, res, final, victim

    def test_bitwise_identical_to_fault_free(self):
        rt, res, final, victim = self._crash_run(crash_at=0.9)
        np.testing.assert_array_equal(final["grid"], fault_free_grid())

    def test_recovery_record_contents(self):
        rt, res, final, victim = self._crash_run(crash_at=0.9)
        assert len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec.crashed_nodes == [victim]
        assert rec.reason == "heartbeat"
        assert rec.detection_latency > 0.0
        assert rec.restore_seconds > 0.0
        assert rec.detected_at >= 0.9
        assert rec.time > rec.detected_at
        # a checkpoint completed before the crash: warm restore
        assert rec.checkpoint_time is not None
        assert rec.lost_work_seconds == pytest.approx(
            rec.detected_at - rec.checkpoint_time
        )
        assert rec.nprocs_before == rec.nprocs_after == 3

    def test_recovers_in_the_same_runtime(self):
        """No new runtime is constructed: the team is rebuilt in place."""
        rt, res, final, victim = self._crash_run(crash_at=0.9)
        assert rt.finished
        assert not rt.team.has_node(victim)
        # the idle spare was drafted into the team
        assert rt.team.nprocs == 3
        assert all(not rt.procs[pid].node.crashed for pid in rt.team.pids)

    def test_crash_before_first_checkpoint_cold_restarts(self):
        rt, res, final, victim = self._crash_run(crash_at=0.25)
        rec = res.recoveries[0]
        assert rec.checkpoint_time is None  # nothing on disk yet
        np.testing.assert_array_equal(final["grid"], fault_free_grid())

    def test_result_counters_surface(self):
        rt, res, final, victim = self._crash_run(crash_at=0.9)
        assert res.detector.heartbeats_sent > 0
        assert res.detector.heartbeat_misses >= rt.cfg.faults.suspicion_threshold


class TestMasterCrashRecovery:
    def test_master_crash_recovers_bitwise(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        old_master = rt.team.node_of(0)
        sim.schedule(0.9, lambda: rt.inject_crash(old_master))
        res = rt.run(prog)
        assert len(res.recoveries) == 1
        assert res.recoveries[0].crashed_nodes == [old_master]
        assert rt.team.node_of(0) != old_master
        np.testing.assert_array_equal(final["grid"], fault_free_grid())


class TestEscalationPath:
    def test_request_timeout_escalates_without_heartbeats(self):
        cfg = dataclasses.replace(
            SystemConfig(), faults=FaultParams(heartbeat_interval=0.0)
        )
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2, cfg=cfg,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        victim = rt.team.node_of(1)
        sim.schedule(0.9, lambda: rt.inject_crash(victim))
        res = rt.run(prog)
        assert res.detector.heartbeats_sent == 0
        assert len(res.recoveries) == 1
        assert res.recoveries[0].reason == "timeout"
        np.testing.assert_array_equal(final["grid"], fault_free_grid())


class TestPlanDrivenRecovery:
    def test_scripted_crash_plan(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        inj = FaultInjector(rt, parse_plan("0.9 crash 1"))
        inj.install()
        res = rt.run(prog)
        assert [a.action for a in inj.fired] == ["crash"]
        assert len(res.recoveries) == 1
        np.testing.assert_array_equal(final["grid"], fault_free_grid())

    def test_double_crash_sequential_recoveries(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        FaultInjector(rt, parse_plan("0.9 crash 1\n2.5 crash 2")).install()
        res = rt.run(prog)
        assert len(res.recoveries) == 2
        np.testing.assert_array_equal(final["grid"], fault_free_grid())


class TestStockKernelsReplayFromZero:
    """Only ``jacobi-resumable`` keeps its iteration counter in shared
    memory.  A stock kernel's driver rewrites the initial data, so after a
    warm restore it re-runs every iteration, like a cold restart."""

    ITERATIONS = 60

    def _forks_after_recovery(self, kernel):
        spec = ScenarioSpec(
            kernel=kernel, params={"n": 96, "iterations": self.ITERATIONS},
            nprocs=4, calibrated=False, materialized=True, extra_nodes=1,
            events=(AdaptEvent("crash", 0.85),))
        exp = run_experiment(
            spec.build_app, nprocs=spec.nprocs, adaptive=True,
            extra_nodes=spec.extra_nodes, materialized=True,
            events=spec.install_events, trace=True,
            runtime_kwargs={"checkpoint_interval": 0.2, "failure_detection": True})
        (rec,) = exp.recoveries
        assert rec.checkpoint_time is not None  # a warm restore
        assert exp.app.verify(rtol=1e-7, atol=1e-9)
        tracer = exp.runtime.sim.tracer
        return sum(1 for r in tracer.select("tmk", "fork") if r.time >= rec.time)

    def test_stock_jacobi_reruns_every_iteration(self):
        assert self._forks_after_recovery("jacobi") == 2 * self.ITERATIONS

    def test_resumable_jacobi_skips_the_checkpointed_prefix(self):
        assert 0 < self._forks_after_recovery("jacobi-resumable") < 2 * self.ITERATIONS


class TestPoolExhaustion:
    def test_no_nodes_left_raises_recovery_error(self):
        from repro.core.recovery import plan_new_team

        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=0)
        for node in pool.nodes.values():
            node.crash(0.0)
        with pytest.raises(RecoveryError):
            plan_new_team(rt, 2)

    def test_team_shrinks_when_pool_runs_dry(self):
        """Crash with no idle spare: survivors alone form a smaller team."""
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=0,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        sim.schedule(0.9, lambda: rt.inject_crash(rt.team.node_of(2)))
        res = rt.run(prog)
        rec = res.recoveries[0]
        assert rec.nprocs_before == 3 and rec.nprocs_after == 2
        np.testing.assert_array_equal(final["grid"], fault_free_grid())


class TestIdlePoolCrash:
    def test_idle_node_crash_does_not_disturb_the_run(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        idle_id = [n.node_id for n in pool.idle_nodes()][0]
        sim.schedule(0.9, lambda: rt.inject_crash(idle_id))
        res = rt.run(prog)
        assert res.recoveries == []
        np.testing.assert_array_equal(final["grid"], fault_free_grid())

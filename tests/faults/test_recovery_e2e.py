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
from repro.core import RequestState
from repro.errors import RecoveryError
from repro.exec import AdaptEvent, ScenarioSpec
from repro.exec.pool import execute_spec
from repro.faults import FaultInjector, parse_plan
from repro.obs import Registry

from ..core.test_checkpoint import counter_program
from ..golden import SCENARIOS
from ..helpers import build_adaptive

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
        assert rt.detector.heartbeats_sent > 0
        assert rt.detector.heartbeat_misses >= rt.cfg.faults.suspicion_threshold


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
        assert rt.detector.heartbeats_sent == 0
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


class TestStockKernelsResume:
    """After a warm restore every stock kernel's driver replays to the
    checkpointed fork and runs only the rest, and the memory verifies."""

    #: kernel -> (params, crash time, forks in a whole run)
    CASES = {
        "jacobi": ({"n": 96, "iterations": 60}, 0.85, 120),
        "gauss": ({"n": 96, "iterations": 95}, 0.85, 95),
        "fft3d": ({"nx": 16, "ny": 16, "nz": 16, "iterations": 12}, 0.76, 24),
        "nbf": ({"natoms": 1024, "npartners": 8, "iterations": 30}, 0.71, 60),
    }

    @staticmethod
    def _crash_run(kernel, params, crash_at, checkpoint_interval):
        """The materialized run, its one recovery, the checkpoint it
        restored and the number of forks run after it."""
        spec = ScenarioSpec(
            kernel=kernel, params=params,
            nprocs=4, materialized=True, extra_nodes=1,
            events=(AdaptEvent("crash", crash_at),))
        exp = run_experiment(
            spec.build_app, nprocs=spec.nprocs, adaptive=True,
            extra_nodes=spec.extra_nodes, materialized=True,
            events=spec.install_events, obs=Registry(),
            runtime_kwargs={"checkpoint_interval": checkpoint_interval,
                            "failure_detection": True})
        (rec,) = exp.recoveries
        (ckpt,) = [c for c in exp.runtime.ckpt_mgr.checkpoints
                   if c.time == rec.checkpoint_time]  # a warm restore
        forks = exp.runtime.sim.obs.select_instants("tmk", "fork")
        return exp, ckpt, sum(1 for i in forks if i.time >= rec.time)

    @pytest.mark.parametrize("kernel", sorted(CASES))
    def test_resume_at_checkpoint(self, kernel):
        params, crash_at, total = self.CASES[kernel]
        exp, ckpt, after = self._crash_run(kernel, params, crash_at, 0.2)
        assert 0 < len(ckpt.phases) < total
        assert after == total - len(ckpt.phases)
        assert exp.app.verify(rtol=1e-7, atol=1e-9)

    def test_crash_during_the_final_stop_restores_the_last_checkpoint(self):
        """Node 3 dies while the checkpoint after the driver returned is
        being written; the STOP to it escalates.  Recovery restores that
        checkpoint, replays every fork and runs none."""
        exp, ckpt, after = self._crash_run(
            "fft3d", {"nx": 8, "ny": 8, "nz": 8, "iterations": 3}, 0.45, 0.02)
        assert len(ckpt.phases) == 6  # every fork of the run
        assert after == 0
        assert exp.runtime.finished
        assert exp.app.verify(rtol=1e-7, atol=1e-9)


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


class TestLeavePendingAtCrash:
    """A leave still pending when a crash is recovered is honoured: the
    owner gets the node back and the rebuilt team does without it."""

    def test_urgent_leave_mid_migration(self):
        # Node 2's zero-grace leave is migrating (0.02 s to ~1.25 s) when
        # node 1 crashes; the heartbeat detector declares it at 0.6 s.
        urgent = SCENARIOS["urgent-mat"].spec
        spec = urgent.replaced(events=urgent.events + (AdaptEvent("crash", 0.5, 1),),
                               failure_detection=True)
        exp, _ = execute_spec(spec)
        rt = exp.runtime
        (leave,) = rt.queue.leaves
        assert leave.state is RequestState.DONE
        assert leave.completed_at == exp.recoveries[0].detected_at == 0.6
        assert leave.migrated_at is None and exp.migrations == []
        node = rt.pool.node(2)
        assert not rt.team.has_node(2) and not node.in_pool
        assert rt.team.snapshot() == {0: 0, 1: 3, 2: 4, 3: 5}
        assert exp.app.verify(rtol=1e-7, atol=1e-9)

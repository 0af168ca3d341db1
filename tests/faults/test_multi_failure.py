"""Multi-failure robustness: cascading crashes and spare exhaustion.

A second crash landing *during* an in-flight recovery must not rebuild
the team onto a dead node: the recovery re-plans over the nodes still
healthy after the restore window and completes bitwise-identically.
When the cascade eats every node, the run must end in a structured,
attributed :class:`RecoveryError` — never a raw simulator traceback.
"""

import numpy as np
import pytest

from repro.errors import RecoveryError
from repro.obs import Registry

from ..core.test_checkpoint import counter_program
from ..helpers import build_adaptive
from .test_recovery_e2e import N_ITER, fault_free_grid


def recovery_window(nprocs, extra_nodes):
    """(detected_at, finished_at) of a single slave crash at t=0.9.

    The simulation is deterministic, so a probe run measures exactly when
    the real run's first recovery will be mid-restore — the window a
    cascading second crash must land in.
    """
    sim, rt, pool = build_adaptive(nprocs=nprocs, extra_nodes=extra_nodes,
                                   checkpoint_interval=0.1,
                                   failure_detection=True)
    final = {}
    prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
    sim.schedule(0.9, lambda: rt.inject_crash(rt.team.node_of(1)))
    res = rt.run(prog)
    rec = res.recoveries[0]
    assert rec.time > rec.detected_at
    return rec.detected_at, rec.time


class TestCascadingCrash:
    def test_second_crash_mid_restore_replans_and_completes(self):
        detected, finished = recovery_window(nprocs=3, extra_nodes=2)
        mid = detected + (finished - detected) / 2

        obs = Registry()
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True, obs=obs)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        sim.schedule(0.9, lambda: rt.inject_crash(rt.team.node_of(1)))
        # a planned survivor dies while the restore is reading the image
        sim.schedule(mid, lambda: rt.inject_crash(rt.team.node_of(2)))
        res = rt.run(prog)

        assert rt.finished
        fault_events = [i.subject for i in obs.select_instants("fault")]
        assert "recovery_replan" in fault_events
        # the rebuilt team contains no crashed node
        assert all(not rt.procs[pid].node.crashed for pid in rt.team.pids)
        np.testing.assert_array_equal(final["grid"], fault_free_grid())

    def test_cascade_consumes_both_spares(self):
        detected, finished = recovery_window(nprocs=3, extra_nodes=2)
        mid = detected + (finished - detected) / 2

        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        crashed = []

        def crash(pid):
            node = rt.team.node_of(pid)
            crashed.append(node)
            rt.inject_crash(node)

        sim.schedule(0.9, lambda: crash(1))
        sim.schedule(mid, lambda: crash(2))
        res = rt.run(prog)

        # one recovery handled the cascade; both spares were drafted
        assert rt.finished and rt.team.nprocs == 3
        assert not any(rt.team.has_node(n) for n in crashed)
        np.testing.assert_array_equal(final["grid"], fault_free_grid())


class TestSpareExhaustion:
    def test_cascade_with_no_spares_raises_structured_error(self):
        detected, finished = recovery_window(nprocs=2, extra_nodes=0)
        mid = detected + (finished - detected) / 2

        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=0,
                                       checkpoint_interval=0.1,
                                       failure_detection=True)
        final = {}
        prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
        sim.schedule(0.9, lambda: rt.inject_crash(rt.team.node_of(1)))
        # the sole survivor (the master) dies mid-restore: nothing is left
        sim.schedule(mid, lambda: rt.inject_crash(rt.team.node_of(0)))

        with pytest.raises(RecoveryError) as ei:
            rt.run(prog)
        # structured failure, not a traceback: the message names the
        # condition and the cause chain keeps the original attribution
        assert "no surviving or idle node" in str(ei.value)
        assert isinstance(ei.value.__cause__, RecoveryError)
        assert not rt.finished

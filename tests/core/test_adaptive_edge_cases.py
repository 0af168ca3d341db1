"""Edge cases of the adaptive runtime: request validation, combined
scenarios, and invariants after chains of adaptations."""

import numpy as np
import pytest

from repro.core import RequestState
from repro.dsm import SharedArray, TmkProgram
from repro.errors import AdaptationError

from ..helpers import build_adaptive
from .test_adaptive_runtime import iterative_program


class TestRequestValidation:
    def test_duplicate_leave_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        prog = iterative_program(rt, n_iter=20)
        errors = []

        def submit_twice():
            rt.submit_leave(2, grace=60.0)
            try:
                rt.submit_leave(2, grace=60.0)
            except AdaptationError as err:
                errors.append(str(err))

        sim.schedule(0.01, submit_twice)
        rt.run(prog)
        assert errors and "pending leave" in errors[0]

    def test_duplicate_join_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=1)
        prog = iterative_program(rt, n_iter=60, compute=0.05)
        errors = []

        def submit_twice():
            rt.submit_join(2)
            try:
                rt.submit_join(2)
            except AdaptationError as err:
                errors.append(str(err))

        sim.schedule(0.01, submit_twice)
        rt.run(prog)
        assert errors and "pending join" in errors[0]

    def test_leave_then_rejoin_same_node(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        checks = []
        prog = iterative_program(rt, n_iter=80, compute=0.03, checks=checks)
        sim.schedule(0.02, lambda: rt.submit_leave(2, grace=60.0))
        sim.schedule(0.4, lambda: rt.submit_join(2))
        res = rt.run(prog)
        assert res.adaptations == 2
        assert rt.team.nprocs == 3
        assert sorted(p for p, n in checks) == [0, 1, 2]

    def test_shrink_to_single_process(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        checks = []
        prog = iterative_program(rt, n_iter=40, checks=checks)
        sim.schedule(0.02, lambda: rt.submit_leave(1, grace=60.0))
        sim.schedule(0.02, lambda: rt.submit_leave(2, grace=60.0))
        res = rt.run(prog)
        assert rt.team.nprocs == 1
        assert checks == [(0, 1)]


class TestAdaptationChains:
    def test_many_adaptations_data_stays_correct(self):
        """A storm of leaves and joins; the final grid is still exact."""
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=2)
        checks = []
        prog = iterative_program(rt, n_iter=200, compute=0.03, checks=checks)
        # leaves early, rejoins later, a fresh node joins too
        sim.schedule(0.05, lambda: rt.submit_leave(3, grace=60.0))
        sim.schedule(0.30, lambda: rt.submit_leave(1, grace=60.0))
        sim.schedule(0.60, lambda: rt.submit_join(4))
        sim.schedule(1.50, lambda: rt.submit_join(3))
        sim.schedule(3.00, lambda: rt.submit_leave(2, grace=60.0))
        res = rt.run(prog)
        assert res.adaptations == 5
        assert len(checks) == rt.team.nprocs
        # pids dense, nodes unique
        assert sorted(rt.team.snapshot()) == list(range(rt.team.nprocs))
        assert sorted(rt.procs) == list(rt.team.pids)

    def test_owner_maps_agree_after_chain(self):
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=1)
        prog = iterative_program(rt, n_iter=120, compute=0.03)
        sim.schedule(0.05, lambda: rt.submit_leave(2, grace=60.0))
        sim.schedule(0.80, lambda: rt.submit_join(4))
        rt.run(prog)
        for page in range(rt.space.total_pages):
            owners = {p.owner_of(page) for p in rt.procs.values()}
            assert len(owners) == 1, f"page {page} owner disagreement: {owners}"
            assert owners.pop() in rt.team.pids

    def test_checkpoint_plus_adaptation_same_run(self):
        sim, rt, pool = build_adaptive(nprocs=4, checkpoint_interval=0.2)
        checks = []
        prog = iterative_program(rt, n_iter=60, compute=0.02, checks=checks)
        sim.schedule(0.1, lambda: rt.submit_leave(3, grace=60.0))
        res = rt.run(prog)
        assert res.adaptations == 1
        assert len(rt.ckpt_mgr.checkpoints) >= 1
        assert sorted(p for p, n in checks) == [0, 1, 2]
        # checkpoints taken after the leave record the shrunken team
        post = [c for c in rt.ckpt_mgr.checkpoints if c.time > res.adapt_log[0].time]
        assert all(c.nprocs == 3 for c in post)

    def test_urgent_then_normal_leave_sequence(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        checks = []
        prog = iterative_program(rt, n_iter=8, compute=0.6, checks=checks)
        # urgent (short grace) followed later by a normal leave
        sim.schedule(0.3, lambda: rt.submit_leave(3, grace=0.1))
        sim.schedule(3.5, lambda: rt.submit_leave(1, grace=60.0))
        res = rt.run(prog)
        assert len(rt.migrations) == 1
        assert rt.team.nprocs == 2
        assert sorted(p for p, n in checks) == [0, 1]


class TestStatsContinuity:
    def test_compute_charged_per_participant(self):
        """The test kernel charges a fixed per-region compute on every
        participant, so total compute tracks the (shrinking) team size —
        bounded by the 3-proc and 4-proc extremes."""
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=50, compute=0.02)
        sim.schedule(0.1, lambda: rt.submit_leave(3, grace=60.0))
        res = rt.run(prog)
        total_compute = sum(s.compute_time for s in res.per_process.values())
        # the leaver contributed a little before departing, so strictly
        # between the all-3 and all-4 extremes
        assert 50 * 0.02 * 3 < total_compute < 50 * 0.02 * 4

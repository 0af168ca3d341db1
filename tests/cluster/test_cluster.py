"""Tests for nodes, pools, and adapt-event daemons."""

import pytest

from repro.cluster import NodePool, PeriodicAlternator, select_pid
from repro.errors import AdaptationError, NodeUnavailableError
from repro.network import Switch
from repro.obs import Registry
from repro.simcore import Simulator

from ..helpers import build_adaptive
from ..core.test_adaptive_runtime import iterative_program


class TestNode:
    def _node(self, speed=1.0):
        sim = Simulator()
        switch = Switch(sim)
        pool = NodePool(sim, switch)
        return sim, pool.add_node(speed)

    def test_compute_charges_time(self):
        sim, node = self._node()

        def worker():
            yield from node.compute(2.0)

        sim.process(worker())
        sim.run()
        assert sim.now == 2.0
        assert node.busy_time == 2.0

    def test_speed_scales_compute(self):
        sim, node = self._node(speed=2.0)

        def worker():
            yield from node.compute(2.0)

        sim.process(worker())
        sim.run()
        assert sim.now == 1.0

    def test_multiplexing_stretches_compute(self):
        sim, node = self._node()
        node.add_process()
        node.add_process()

        def worker():
            yield from node.compute(1.0)

        sim.process(worker())
        sim.run()
        assert sim.now == 2.0

    def test_service_serializes_per_node(self):
        sim, node = self._node()
        ends = []
        for _ in range(3):
            node.handler_cpu.hold(0.1, lambda hold: ends.append(sim.now))
        sim.run()
        assert ends == pytest.approx([0.1, 0.2, 0.3])

    def test_negative_compute_rejected(self):
        sim, node = self._node()
        with pytest.raises(ValueError):
            list(node.compute(-1.0))

    def test_remove_without_process_raises(self):
        sim, node = self._node()
        with pytest.raises(RuntimeError):
            node.remove_process()

    def test_withdraw_and_rejoin(self):
        sim, node = self._node()
        node.withdraw()
        assert not node.in_pool and not node.nic.attached
        node.rejoin()
        assert node.in_pool and node.nic.attached


class TestPool:
    def test_add_and_lookup(self):
        sim = Simulator()
        pool = NodePool(sim, Switch(sim))
        nodes = pool.add_nodes(3)
        assert len(pool) == 3
        assert pool.node(1) is nodes[1]
        with pytest.raises(NodeUnavailableError):
            pool.node(9)

    def test_available_and_idle(self):
        sim = Simulator()
        pool = NodePool(sim, Switch(sim))
        nodes = pool.add_nodes(3)
        nodes[0].add_process()
        nodes[2].withdraw()
        assert [n.node_id for n in pool.available_nodes()] == [0, 1]
        assert [n.node_id for n in pool.idle_nodes()] == [1]


class TestSelectPid:
    def test_end(self):
        assert select_pid(8, "end") == 7

    def test_middle(self):
        assert select_pid(8, "middle") == 4
        assert select_pid(7, "middle") == 3

    def test_explicit(self):
        assert select_pid(8, 3) == 3

    def test_master_not_selectable(self):
        with pytest.raises(AdaptationError):
            select_pid(8, 0)

    def test_unknown_selector(self):
        with pytest.raises(AdaptationError):
            select_pid(8, "first")


class TestPeriodicAlternator:
    def test_alternating_leave_join_end(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=120, compute=0.02)
        alt = PeriodicAlternator(rt, selector="end", gap=0.2, max_events=4)
        alt.install()
        res = rt.run(prog)
        actions = [a for _, a, _, _ in alt.events]
        assert actions == ["leave", "join", "leave", "join"]
        assert res.adaptations == 4
        assert rt.team.nprocs == 4  # back to full strength

    def test_alternator_middle_targets_middle_pid(self):
        sim, rt, pool = build_adaptive(nprocs=4, obs=Registry())
        prog = iterative_program(rt, n_iter=120, compute=0.02)
        alt = PeriodicAlternator(rt, selector="middle", gap=0.2, max_events=2)
        alt.install()
        rt.run(prog)
        # the first leave targeted pid 2's node (= node 2 initially)
        assert alt.events[0][2] == 2

    def test_at_most_one_event_per_adaptation_point(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=150, compute=0.02)
        alt = PeriodicAlternator(rt, selector="end", gap=0.1, max_events=6)
        alt.install()
        res = rt.run(prog)
        for record in res.adapt_log:
            assert len(record.joins) + len(record.leaves) + len(record.urgent_leaves) == 1


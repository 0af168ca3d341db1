"""Shared test harness: build small simulated systems quickly."""

from __future__ import annotations

import gc

from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.dsm import TmkProgram, TmkRuntime
from repro.network import Switch
from repro.simcore import Simulator


def collected_so_far() -> int:
    """Objects every cyclic-collector pass so far has found unreachable.

    A difference of two readings counts what any collection in between
    found — the explicit ``gc.collect()`` and an automatic pass alike (the
    first allocation after ``Simulator.run`` restores the collector
    usually triggers one)."""
    return sum(gen["collected"] + gen["uncollectable"] for gen in gc.get_stats())


def build_system(nprocs=4, extra_nodes=0, cfg=None, materialized=True, trace=False,
                 obs=None, runtime_cls=TmkRuntime, **runtime_kw):
    """A simulator + switch + pool + runtime with ``nprocs`` team nodes.

    ``extra_nodes`` provisions idle workstations (join candidates);
    ``obs`` is an optional :class:`repro.obs.Registry` to record into.
    Returns (sim, runtime, pool).
    """
    sim = Simulator(trace=trace, obs=obs)
    cfg = cfg or SystemConfig()
    switch = Switch(sim, cfg.network)
    pool = NodePool(sim, switch)
    team_nodes = pool.add_nodes(nprocs)
    pool.add_nodes(extra_nodes)
    runtime = runtime_cls(sim, cfg, team_nodes, materialized=materialized, **runtime_kw)
    return sim, runtime, pool


def build_adaptive(nprocs=4, extra_nodes=2, cfg=None, materialized=True, trace=False,
                   obs=None, **runtime_kw):
    """An AdaptiveRuntime over ``nprocs`` team nodes + idle extras."""
    from repro.core import AdaptiveRuntime

    sim = Simulator(trace=trace, obs=obs)
    cfg = cfg or SystemConfig()
    switch = Switch(sim, cfg.network)
    pool = NodePool(sim, switch)
    team_nodes = pool.add_nodes(nprocs)
    pool.add_nodes(extra_nodes)
    runtime = AdaptiveRuntime(
        sim, cfg, team_nodes, pool, materialized=materialized, **runtime_kw
    )
    return sim, runtime, pool


def run_phases(runtime, phases, order, name="test"):
    """Run a program that fork/joins ``order``'s phases in sequence."""

    def driver(api):
        for item in order:
            if isinstance(item, tuple):
                phase, args = item
            else:
                phase, args = item, None
            yield from api.fork_join(phase, args)

    return runtime.run(TmkProgram(phases, driver, name))

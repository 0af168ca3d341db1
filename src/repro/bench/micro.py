"""§5.1 micro-benchmarks, measured on the simulated testbed.

Each function builds the smallest system that performs one operation and
returns its simulated latency in seconds, to compare with the testbed's
measurements in :data:`~repro.bench.paper_data.MICRO`: 1-byte round trip
126 µs, lock acquisition 178–272 µs, diff fetch 313–1 544 µs (by size),
full page transfer 1 308 µs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..cluster import NodePool
from ..config import SystemConfig
from ..dsm import SharedArray, TmkProgram, TmkRuntime
from ..network import Message, Switch
from ..simcore import Simulator


def fresh(nprocs: int = 2):
    """A simulator and a materialized TreadMarks runtime on ``nprocs`` nodes."""
    sim = Simulator()
    cfg = SystemConfig()
    switch = Switch(sim, cfg.network)
    pool = NodePool(sim, switch)
    rt = TmkRuntime(sim, cfg, pool.add_nodes(nprocs), materialized=True)
    return sim, rt


def measure_rtt() -> float:
    """Round trip of a 1-byte message and its 1-byte reply."""
    sim = Simulator()
    switch = Switch(sim)
    nics = [switch.attach(i) for i in range(2)]
    out = {}

    def client():
        t0 = sim.now
        yield nics[0].request(Message("ping", src=0, dst=1, size_bytes=1))
        out["rtt"] = sim.now - t0

    def server():
        msg = yield nics[1].inbox.recv()
        nics[1].send(msg.reply("pong", size_bytes=1))

    sim.process(client())
    sim.process(server())
    sim.run()
    return out["rtt"]


def measure_page_and_diffs() -> Dict[str, float]:
    """One remote page fetch; then diff fetches of two sizes
    (``page``, ``diff_small``, ``diff_full``)."""
    sim, rt = fresh(2)
    seg = rt.malloc("x", shape=(2, 512), dtype="float64")  # 2 pages
    arr = SharedArray(seg)
    out = {}

    def writer(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            arr.view(ctx)[:] = 1.0

    def page_fetch(ctx, pid, nprocs, args):
        if pid == 1:
            t0 = ctx.sim.now
            yield from ctx.access(arr.seg, reads=arr.rows(0, 1))
            out["page"] = ctx.sim.now - t0

    def small_write(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=[(0, 8)])
            arr.view(ctx)[0, 0] = 2.0

    def small_diff(ctx, pid, nprocs, args):
        if pid == 1:
            t0 = ctx.sim.now
            yield from ctx.access(arr.seg, reads=arr.rows(0, 1))
            out["diff_small"] = ctx.sim.now - t0

    def big_write(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.rows(0, 1))
            # every byte of the page must change for a full-page diff
            arr.view(ctx)[0] = np.random.default_rng(3).random(512) + 5.0

    def big_diff(ctx, pid, nprocs, args):
        if pid == 1:
            t0 = ctx.sim.now
            yield from ctx.access(arr.seg, reads=arr.rows(0, 1))
            out["diff_full"] = ctx.sim.now - t0

    def driver(api):
        for phase in ("w", "pf", "sw", "sd", "bw", "bd"):
            yield from api.fork_join(phase)

    rt.run(
        TmkProgram(
            {
                "w": writer, "pf": page_fetch, "sw": small_write,
                "sd": small_diff, "bw": big_write, "bd": big_diff,
            },
            driver,
            "micro",
        )
    )
    return out


def measure_lock() -> float:
    """Acquisition of a lock last held by another process."""
    sim, rt = fresh(2)
    out = {}

    def region(ctx, pid, nprocs, args):
        if pid == 1:
            t0 = ctx.sim.now
            yield from ctx.lock(1)
            out["lock"] = ctx.sim.now - t0
            ctx.unlock(1)

    def driver(api):
        yield from api.fork_join("r")

    rt.run(TmkProgram({"r": region}, driver, "lock-micro"))
    return out["lock"]

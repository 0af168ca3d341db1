#!/usr/bin/env python
"""Fault tolerance (§4.3): checkpoint at adaptation points, then recover.

Three phases:

1. run an iterative kernel with periodic checkpointing and "crash" the
   whole NOW mid-run (power flicker);
2. recover on a *different* cluster from the latest checkpoint — because
   checkpoints are taken at adaptation points, only the master's image
   plus the garbage-collected shared pages are saved;
3. fail-stop a single slave node mid-run and let the *live* runtime
   detect it via heartbeats and recover in place: rebuild the team from
   survivors plus an idle spare, reload the checkpoint, and resume.

The driver is ordinary sequential code: a checkpoint records the
parallel constructs it had entered, and a restarted driver replays
through them at no cost before running the rest for real.  (The shared
iteration counter only shows which iteration a checkpoint holds.)

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.core import AdaptiveRuntime, restore_checkpoint
from repro.dsm import SharedArray, TmkProgram
from repro.network import Switch
from repro.simcore import Simulator

N_ITER = 60
SHAPE = (128, 64)


def build(rt, label):
    seg = rt.malloc("grid", shape=SHAPE, dtype="float64")
    meta = rt.malloc("meta", shape=(4,), dtype="int64")
    arr, ctr = SharedArray(seg), SharedArray(meta)

    def init(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            yield from ctx.access(ctr.seg, writes=ctr.full())
            if ctx.materialized:
                arr.view(ctx)[:] = 0.0
                ctr.view(ctx)[0] = 0

    def step(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi))
        if ctx.materialized:
            arr.view(ctx)[lo:hi] += 1.0
        if pid == 0:
            yield from ctx.access(ctr.seg, reads=ctr.full(), writes=ctr.full())
            if ctx.materialized:
                ctr.view(ctx)[0] = args + 1
        yield from ctx.compute(0.01)

    def driver(api):
        ctx = api.ctx
        yield from api.fork_join("init")
        for it in range(N_ITER):
            yield from api.fork_join("step", it)
        yield from ctx.access(arr.seg, reads=arr.full())
        v = arr.view(ctx)
        print(f"    [{label}] finished: grid uniformly {v[0, 0]:.0f} "
              f"({'OK' if np.all(v == N_ITER) else 'CORRUPT'})")

    return TmkProgram({"init": init, "step": step}, driver, "ft-demo"), arr, ctr


def fresh_cluster(nprocs, extra_nodes=0, **runtime_kw):
    sim = Simulator()
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    team = pool.add_nodes(nprocs)
    pool.add_nodes(extra_nodes)
    rt = AdaptiveRuntime(sim, cfg, team, pool,
                         checkpoint_interval=0.1, **runtime_kw)
    return sim, rt


def main():
    print("== phase 1: run with periodic checkpoints, crash mid-run ==")
    sim, rt = fresh_cluster(4)
    prog, *_ = build(rt, "first run")
    crash_at = 1.6  # after at least one full checkpoint (disk write ~0.7 s)
    rt.run(prog, until=crash_at)  # the whole NOW goes dark here
    ckpts = rt.ckpt_mgr.checkpoints
    print(f"    crash at t={crash_at}s with {len(ckpts)} checkpoints on disk")
    latest = ckpts[-1]
    it = int(latest.segment_data["meta"].view("int64")[0])
    print(f"    latest checkpoint: t={latest.time:.3f}s, iteration {it}, "
          f"{latest.image_bytes / 1e6:.1f} MB image "
          f"(written in {latest.write_seconds:.3f}s)")

    print("== phase 2: recover on a different cluster (3 nodes) ==")
    sim2, rt2 = fresh_cluster(3)
    prog2, *_ = build(rt2, "recovery")
    restore_checkpoint(rt2, latest)
    res = rt2.run(prog2)
    print(f"    replayed {len(latest.phases)} constructs, ran {res.forks}; "
          f"finished at t={res.runtime_seconds:.3f}s on {rt2.team.nprocs} nodes")

    print("== phase 3: live in-place recovery from a slave crash ==")
    sim3, rt3 = fresh_cluster(4, extra_nodes=1, failure_detection=True)
    prog3, *_ = build(rt3, "live recovery")
    victim = rt3.team.node_of(2)
    sim3.schedule(1.6, lambda: rt3.inject_crash(victim))
    res3 = rt3.run(prog3)
    rec = res3.recoveries[0]
    src = ("cold restart" if rec.checkpoint_time is None
           else f"checkpoint at t={rec.checkpoint_time:.3f}s")
    print(f"    node {victim} crashed at t=1.6s; detected by {rec.reason} "
          f"after {rec.detection_latency * 1e3:.0f}ms")
    print(f"    team rebuilt {rec.nprocs_before}->{rec.nprocs_after} procs, "
          f"restored from {src} in {rec.restore_seconds:.3f}s "
          f"({rec.lost_work_seconds:.3f}s of work lost)")
    print(f"    finished at t={res3.runtime_seconds:.3f}s with "
          f"{rt3.detector.heartbeats_sent} heartbeats "
          f"({rt3.detector.false_suspicions} false suspicions)")


if __name__ == "__main__":
    main()

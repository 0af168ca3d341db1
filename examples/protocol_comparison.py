#!/usr/bin/env python
"""Why TreadMarks: LRC vs the classic write-invalidate SVM.

Runs the same OpenMP Jacobi under the TreadMarks-style lazy-release-
consistency DSM and under the Li–Hudak write-invalidate baseline (the
paper's reference [15]), then prints runtimes, traffic, per-process
time breakdowns (``RunResult.per_process``) and per-link hot spots
(``Switch.link_report()``).  Jacobi's 5 600-byte rows are not
page aligned, so neighbouring partitions falsely share boundary pages —
the exact pathology LRC's multiple-writer protocol removes.

Run:  python examples/protocol_comparison.py
"""

from repro.apps import Jacobi
from repro.bench.harness import run_experiment
from repro.bench.reporting import format_table
from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.dsm import ScRuntime
from repro.network import Switch
from repro.simcore import Simulator

NPROCS = 8
FACTORY = lambda: Jacobi(700, 40)


def run_sc():
    """The same kernel on the write-invalidate runtime: (result, switch)."""
    sim = Simulator()
    cfg = SystemConfig()
    switch = Switch(sim, cfg.network)
    rt = ScRuntime(sim, cfg, NodePool(sim, switch).add_nodes(NPROCS),
                   materialized=False)
    app = FACTORY()
    app.do_collect = False
    return rt.run(app.program(rt)), switch


def breakdown_table(result) -> str:
    """Per-process time breakdown from ``RunResult.per_process``."""
    total = result.runtime_seconds
    rows = [
        [pid, s.compute_time, s.fault_wait_time, s.barrier_wait_time,
         s.lock_wait_time, f"{100 * max(0.0, 1 - s.compute_time / total):.1f}%"]
        for pid, s in sorted(result.per_process.items())
    ]
    return format_table(
        ["pid", "compute (s)", "fault wait (s)", "barrier wait (s)",
         "lock wait (s)", "overhead"],
        rows, title=f"Time breakdown over {total:.3f}s",
    )


def link_table(switch, runtime_seconds: float, top: int) -> str:
    """The busiest links from ``Switch.link_report()`` (busy seconds)."""
    busiest = sorted(switch.link_report().items(),
                     key=lambda kv: (-kv[1], kv[0]))[:top]
    rows = [[name, busy, f"{100 * busy / runtime_seconds:.2f}%"]
            for name, busy in busiest]
    return format_table(
        ["link", "busy (s)", "utilization"], rows,
        title="Busiest directional links (§5.4: the max determines adaptation cost)",
    )


def main():
    lrc = run_experiment(FACTORY, nprocs=NPROCS)
    sc, sc_switch = run_sc()

    print("== Jacobi 700x700, 8 workstations ==\n")
    print(f"{'':24}  {'LRC (TreadMarks)':>18}  {'SC (write-invalidate)':>22}")
    print(f"{'simulated runtime':24}  {lrc.runtime_seconds:>17.2f}s  {sc.runtime_seconds:>21.2f}s")
    print(f"{'page transfers':24}  {lrc.traffic.pages:>18,}  {sc.traffic.pages:>22,}")
    print(f"{'diff transfers':24}  {lrc.traffic.diffs:>18,}  {sc.traffic.diffs:>22,}")
    print(f"{'traffic (MB)':24}  {lrc.traffic.megabytes:>18.1f}  {sc.traffic.megabytes:>22.1f}")
    print(f"{'messages':24}  {lrc.traffic.messages:>18,}  {sc.traffic.messages:>22,}")
    print()
    print("--- LRC: " + breakdown_table(lrc.run_result).replace("\n", "\n    "))
    print()
    print("--- SC:  " + breakdown_table(sc).replace("\n", "\n    "))
    print()
    print("--- LRC: " + link_table(lrc.runtime.switch, lrc.runtime_seconds,
                                   top=4).replace("\n", "\n    "))
    print()
    print("--- SC:  " + link_table(sc_switch, sc.runtime_seconds,
                                   top=4).replace("\n", "\n    "))


if __name__ == "__main__":
    main()

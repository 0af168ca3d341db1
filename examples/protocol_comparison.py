#!/usr/bin/env python
"""Why TreadMarks: LRC vs the classic write-invalidate SVM.

Runs the same OpenMP Jacobi under the TreadMarks-style lazy-release-
consistency DSM and under the Li–Hudak write-invalidate baseline (the
paper's reference [15]), then prints runtimes, traffic, per-link hot
spots, and per-process time breakdowns.  Jacobi's 5 600-byte rows are not
page aligned, so neighbouring partitions falsely share boundary pages —
the exact pathology LRC's multiple-writer protocol removes.

Run:  python examples/protocol_comparison.py
"""

from repro.bench import breakdown_table, link_table, make_jacobi
from repro.bench.harness import run_experiment
from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.dsm import ScRuntime
from repro.network import Switch
from repro.simcore import Simulator

NPROCS = 8
FACTORY = lambda: make_jacobi(700, 40)


def run_sc():
    sim = Simulator()
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = ScRuntime(sim, cfg, pool.add_nodes(NPROCS), materialized=False)
    app = FACTORY()
    app.do_collect = False
    result = rt.run(app.program(rt))

    class Shim:  # the analysis helpers want .runtime / .runtime_seconds
        runtime = rt
        runtime_seconds = result.runtime_seconds
        per_process = result.per_process
        traffic = result.traffic
        adapt_records = []

    return Shim


def main():
    lrc = run_experiment(FACTORY, nprocs=NPROCS)
    sc = run_sc()

    print("== Jacobi 700x700, 8 workstations ==\n")
    print(f"{'':24}  {'LRC (TreadMarks)':>18}  {'SC (write-invalidate)':>22}")
    print(f"{'simulated runtime':24}  {lrc.runtime_seconds:>17.2f}s  {sc.runtime_seconds:>21.2f}s")
    print(f"{'page transfers':24}  {lrc.traffic.pages:>18,}  {sc.traffic.pages:>22,}")
    print(f"{'diff transfers':24}  {lrc.traffic.diffs:>18,}  {sc.traffic.diffs:>22,}")
    print(f"{'traffic (MB)':24}  {lrc.traffic.megabytes:>18.1f}  {sc.traffic.megabytes:>22.1f}")
    print(f"{'messages':24}  {lrc.traffic.messages:>18,}  {sc.traffic.messages:>22,}")
    print()
    print("--- LRC: " + breakdown_table(lrc).replace("\n", "\n    "))
    print()
    print("--- SC:  " + breakdown_table(sc, sc.runtime_seconds).replace("\n", "\n    "))
    print()
    print(link_table(lrc, top=4))


if __name__ == "__main__":
    main()

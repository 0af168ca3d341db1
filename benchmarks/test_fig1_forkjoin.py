"""Figure 1 — the OpenMP fork/join execution model.

Demonstrates the pseudo-code of Figure 1 going through the full pipeline:
a ``#pragma OMP for`` construct is lowered by the compiler into a
Tmk_fork/Tmk_join phase whose partitioning code re-executes at every
fork, while sequential code runs only on the master.  The trace must show
the strict fork -> (parallel work on all pids) -> join sequence.
"""

from repro.bench import format_table
from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.network import Switch
from repro.obs import Registry
from repro.openmp import OmpProgram, ParallelFor, compile_openmp
from repro.simcore import Simulator
from repro.dsm import TmkRuntime

MAX = 12


def build_run(nprocs):
    sim = Simulator(obs=Registry())
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = TmkRuntime(sim, cfg, pool.add_nodes(nprocs), materialized=False)
    executed = []
    sequential = []

    def body(ctx, lo, hi, args):
        executed.append((ctx.pid, lo, hi))
        yield from ctx.compute(1e-4 * (hi - lo))

    def seq_block(ctx):
        sequential.append(ctx.pid)
        yield from ctx.compute(1e-4)

    def driver(omp):
        yield from omp.serial(seq_block)  # executed sequentially, master only
        yield from omp.parallel_for("loop")  # iterations divided among all
        yield from omp.serial(seq_block)

    prog = OmpProgram("figure1", [ParallelFor("loop", MAX, body)], driver)
    rt.run(compile_openmp(prog))
    return sim, executed, sequential


def test_figure1_model(report):
    sim, executed, sequential = build_run(nprocs=3)
    # sequential code: master only
    assert sequential == [0, 0]
    # the loop's iterations are divided among all processes
    covered = sorted(i for pid, lo, hi in executed for i in range(lo, hi))
    assert covered == list(range(MAX))
    assert sorted({pid for pid, _, _ in executed}) == [0, 1, 2]
    # trace shows fork before join
    forks = sim.obs.select_instants(category="tmk", subject="fork")
    joins = sim.obs.select_instants(category="tmk", subject="join")
    assert len(forks) == len(joins) == 1
    assert forks[0].time <= joins[0].time

    rows = [
        [pid, f"[{lo}, {hi})", hi - lo]
        for pid, lo, hi in sorted(executed)
    ]
    report(
        "fig1_forkjoin",
        format_table(
            ["pid", "iterations", "count"],
            rows,
            title=f"Figure 1: one parallel-for construct of {MAX} iterations on 3 processes",
        ),
    )


def test_partitioning_reexecuted_at_every_fork():
    """The degree of parallelism may change at every new fork (§2)."""
    for nprocs in (1, 2, 4):
        _, executed, _ = build_run(nprocs)
        per_pid = {}
        for pid, lo, hi in executed:
            per_pid[pid] = per_pid.get(pid, 0) + hi - lo
        assert len(per_pid) == nprocs
        assert sum(per_pid.values()) == MAX

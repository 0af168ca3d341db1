"""§5.4 — micro analysis of adaptation costs.

The paper states five qualitative laws (its detailed tables were cut for
space); each test below reproduces one:

c1. the cost of adaptation is proportional to the maximum network traffic
    per link generated by the adapt event;
c2. smaller problem sizes give proportionally smaller adaptation costs;
c3. the cost of adaptation decreases as the number of processes grows;
c4. handling multiple adapt events together is cheaper than handling them
    at successive adaptation points;
c5. the more recently a process joined, the less data must be transferred
    when it leaves (only accessed/owned pages move).
"""

from __future__ import annotations

import pytest

from repro.apps import Gauss, Jacobi
from repro.bench import format_table
from repro.bench.harness import run_experiment


def leave_run(factory, nprocs, leave_pid=None, at=0.2, grace=1e9, **kw):
    leave_pid = nprocs - 1 if leave_pid is None else leave_pid

    def install(rt):
        node = rt.team.node_of(leave_pid)
        rt.sim.schedule(at, lambda: rt.submit_leave(node, grace=grace))

    return run_experiment(factory, nprocs=nprocs, adaptive=True, events=install, **kw)


# ---------------------------------------------------------------------------
# c1: cost ∝ max per-link traffic
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def c1_points():
    points = []
    for n in (352, 704, 1056, 1408):
        res = leave_run(lambda n=n: Jacobi(n, 16), nprocs=8)
        rec = res.adapt_records[0]
        points.append((rec.max_link_bytes, rec.duration))
    return points


def test_c1_cost_proportional_to_max_link_traffic(c1_points, report):
    report(
        "micro54_c1_link_traffic",
        format_table(
            ["max link bytes", "adaptation cost (s)"],
            c1_points,
            title="§5.4 c1: adaptation cost vs max per-link traffic (Jacobi end-leave, varying size)",
        ),
    )
    xs = [x for x, _ in c1_points]
    ys = [y for _, y in c1_points]
    assert xs == sorted(xs) and ys == sorted(ys)
    # proportionality: the cost/traffic ratio stays within a factor ~2
    ratios = [y / x for x, y in c1_points]
    assert max(ratios) / min(ratios) < 2.5


# ---------------------------------------------------------------------------
# c2: cost ∝ problem size
# ---------------------------------------------------------------------------
def test_c2_cost_scales_with_problem_size(c1_points, report):
    """Jacobi's shared memory grows with n²; so must the leave cost."""
    costs = [y for _, y in c1_points]
    # sizes 352 -> 1408: memory grows 16x; cost must grow substantially
    # and monotonically (fixed per-event costs damp perfect proportionality)
    assert costs[-1] > 4 * costs[0]
    report(
        "micro54_c2_problem_size",
        format_table(
            ["n (grid)", "cost (s)"],
            [[n, c] for n, c in zip((352, 704, 1056, 1408), costs)],
            title="§5.4 c2: adaptation cost vs problem size",
        ),
    )


# ---------------------------------------------------------------------------
# c3: cost decreases as the number of processes increases
# ---------------------------------------------------------------------------
def test_c3_cost_decreases_with_more_processes(report):
    rows = []
    costs = {}
    for nprocs in (4, 6, 8):
        res = leave_run(lambda: Jacobi(704, 16), nprocs=nprocs)
        rec = res.adapt_records[0]
        costs[nprocs] = rec.duration
        rows.append([nprocs, rec.duration, rec.drained_pages, rec.max_link_bytes])
    report(
        "micro54_c3_nprocs",
        format_table(
            ["procs", "cost (s)", "drained pages", "max link bytes"],
            rows,
            title="§5.4 c3: adaptation cost vs team size (Jacobi 704, end leave)",
        ),
    )
    assert costs[8] < costs[6] < costs[4]


# ---------------------------------------------------------------------------
# c4: batched adapt events are cheaper than successive ones
# ---------------------------------------------------------------------------
def test_c4_batched_adaptations_cheaper(report):
    factory = lambda: Jacobi(704, 40)

    def batched(rt):
        # both leaves pending before the same adaptation point
        rt.sim.schedule(0.2, lambda: rt.submit_leave(rt.team.node_of(7), grace=1e9))
        rt.sim.schedule(0.2, lambda: rt.submit_leave(rt.team.node_of(6), grace=1e9))

    def successive(rt):
        rt.sim.schedule(0.2, lambda: rt.submit_leave(rt.team.node_of(7), grace=1e9))
        # second request arrives well after the first adaptation completed
        rt.sim.schedule(1.2, lambda: rt.submit_leave(rt.team.node_of(6), grace=1e9))

    res_b = run_experiment(factory, nprocs=8, adaptive=True, events=batched)
    res_s = run_experiment(factory, nprocs=8, adaptive=True, events=successive)
    cost_b = sum(r.duration for r in res_b.adapt_records)
    cost_s = sum(r.duration for r in res_s.adapt_records)
    report(
        "micro54_c4_batching",
        format_table(
            ["scenario", "adaptation points", "total adapt cost (s)"],
            [
                ["two leaves batched", len(res_b.adapt_records), cost_b],
                ["two leaves successive", len(res_s.adapt_records), cost_s],
            ],
            title="§5.4 c4: batched vs successive adapt events (Jacobi, 8 procs)",
        ),
    )
    assert len(res_b.adapt_records) == 1
    assert len(res_s.adapt_records) == 2
    assert cost_b < cost_s


# ---------------------------------------------------------------------------
# c5: a recently-joined process is cheap to remove
# ---------------------------------------------------------------------------
def test_c5_recent_joiner_cheap_to_remove(report):
    """'Many applications do not access all the shared memory they own in
    every iteration.  At a leave, only the accessed pages need to be
    transferred ... the more recently a process had previously joined, the
    fewer data must be transferred.'

    A sparse-writer kernel (each iteration touches a rotating 1/8 slice of
    the partition) makes the mechanism visible: the long-time member owns
    its whole partition, the recent re-joiner only the slices it wrote
    since re-joining."""
    from repro.dsm import SharedArray, TmkProgram

    PHASES = 64  # slices per partition; one slice written per iteration

    def factory():
        from repro.apps.base import AppKernel
        from repro.openmp import ParallelFor

        class SparseWriter(AppKernel):
            name = "sparse-writer"

            def __init__(self):
                super().__init__()
                self.rows = 1024  # 1 page per row
                self.iterations = 180

            def allocate(self, rt):
                from repro.dsm import Protocol

                self.shared(rt, "data", (self.rows, 512), "float64",
                            Protocol.SINGLE_WRITER)

            def loops(self):
                return [ParallelFor("touch", self.rows, self._body)]

            def _body(self, ctx, lo, hi, args):
                arr = self.arrays["data"]
                span = hi - lo
                chunk = max(1, span // PHASES)
                off = (args % PHASES) * chunk
                wlo = min(lo + off, hi)
                whi = min(wlo + chunk, hi)
                if whi > wlo:
                    yield from ctx.access(arr.seg, writes=arr.rows(wlo, whi))
                yield from ctx.compute(span * 512 * 300e-9)

            def driver(self, omp):
                for it in range(self.iterations):
                    yield from omp.parallel_for("touch", it)

            def reference(self):
                return {}

        return SparseWriter()

    def install(rt):
        # first leave after the member has cycled through all its slices
        rt.sim.schedule(1.8, lambda: rt.submit_leave(rt.team.node_of(7), grace=1e9))
        rt.sim.schedule(1.9, lambda: rt.submit_join(7))
        # ~0.4 s after absorption: only ~1/6 of the slices re-touched
        rt.sim.schedule(3.1, lambda: rt.submit_leave(7, grace=1e9))

    res = run_experiment(factory, nprocs=8, adaptive=True, events=install)
    leaves = [r for r in res.adapt_records if r.leaves]
    assert len(leaves) == 2
    first, second = leaves
    report(
        "micro54_c5_repeat",
        format_table(
            ["leave", "owned pages", "drained pages", "cost (s)"],
            [
                ["first (long-time member)", first.leaver_owned_pages,
                 first.drained_pages, first.duration],
                ["second (recent joiner)", second.leaver_owned_pages,
                 second.drained_pages, second.duration],
            ],
            title="§5.4 c5: repeated adaptations get cheaper (sparse writer, end pid)",
        ),
    )
    assert second.leaver_owned_pages < first.leaver_owned_pages
    assert second.drained_pages <= first.drained_pages

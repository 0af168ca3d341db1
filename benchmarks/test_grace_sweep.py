"""§3 design knob — the grace period and the normal/urgent crossover.

"If the computation can reach the next adaptation point within a
specifiable time limit, termed the grace period, we let the leave events
take effect there ... [otherwise] the process is migrated."

Sweeping the grace period on a workload with ~0.5 s between adaptation
points exposes the crossover exactly where the paper places it: below the
inter-point gap, leaves go urgent (spawn + image copy + multiplexing);
above it, they are normal and an order of magnitude cheaper.  The owner,
meanwhile, gets the machine back *sooner* with a short grace — the trade
the grace period tunes.
"""

import pytest

from repro.apps import Jacobi
from repro.bench import format_table
from repro.bench.harness import run_experiment

FACTORY = lambda: Jacobi(1000, 14)  # ~1.3 s between adaptation points
#: spawn (0.6-0.8 s) + ~1.5 s image copy: what an urgent leave costs
MIGRATION_SECONDS = 2.2
GRACES = (0.05, 0.2, 0.6, 1.5, 3.0)


def grace_run(grace):
    req = {}

    def install(rt):
        rt.sim.schedule(
            0.7, lambda: req.setdefault("r", rt.submit_leave(2, grace=grace))
        )

    res = run_experiment(
        FACTORY, nprocs=3, adaptive=True, events=install
    )
    r = req["r"]
    freed_at = r.migrated_at if r.was_urgent else r.completed_at
    return {
        "res": res,
        "urgent": r.was_urgent,
        "node_freed_after": freed_at - r.submitted_at,
        "leave_completed_after": r.completed_at - r.submitted_at,
    }


@pytest.fixture(scope="module")
def sweep():
    return {g: grace_run(g) for g in GRACES}


def test_grace_report(sweep, report):
    rows = []
    for grace, out in sweep.items():
        rows.append([
            grace,
            "urgent (migrated)" if out["urgent"] else "normal",
            out["node_freed_after"],
            out["leave_completed_after"],
            out["res"].runtime_seconds,
        ])
    report(
        "grace_sweep",
        format_table(
            ["grace (s)", "leave kind", "node freed after (s)",
             "team shrunk after (s)", "runtime (s)"],
            rows,
            title="§3: grace period vs normal/urgent crossover "
                  "(Jacobi 1000, ~1.3 s adaptation-point spacing)",
        ),
    )


def test_crossover_at_adaptation_point_spacing(sweep):
    """Grace below the inter-point gap (~1.3 s here) => urgent;
    above => normal."""
    assert sweep[0.05]["urgent"]
    assert sweep[0.2]["urgent"]
    assert sweep[0.6]["urgent"]
    assert not sweep[1.5]["urgent"]
    assert not sweep[3.0]["urgent"]


def test_normal_leaves_make_the_run_faster(sweep):
    """Urgent leaves pay migration + multiplexing; a sufficient grace
    avoids all of it."""
    urgent_runtime = sweep[0.05]["res"].runtime_seconds
    normal_runtime = sweep[3.0]["res"].runtime_seconds
    assert normal_runtime < urgent_runtime


def test_urgency_is_bounded_by_migration_not_the_program(sweep):
    """An urgent leave frees the node after grace + spawn + image copy,
    regardless of the program; a normal leave frees it at the next
    adaptation point.  With points ~1.3 s apart — i.e. faster than a
    migration — the normal leave wins on *both* metrics, which is exactly
    why the paper prefers it and treats migration as the backup
    (§5.3: "processing of the joins and normal leaves is a few seconds
    faster than the direct cost of migration")."""
    for grace in (0.05, 0.2):
        out = sweep[grace]
        assert out["node_freed_after"] == pytest.approx(
            grace + MIGRATION_SECONDS, rel=0.25
        )
    # urgency would only pay off if adaptation points were rarer than a
    # migration; here they are not, so the normal leave frees the node
    # sooner as well
    assert sweep[3.0]["node_freed_after"] < sweep[0.05]["node_freed_after"]


def test_reasonable_grace_always_normal(sweep):
    """The paper's 'reasonable grace period (3 seconds)' guarantees normal
    leaves for these kernels (§5.3)."""
    out = sweep[3.0]
    assert not out["urgent"]
    assert not out["res"].migrations

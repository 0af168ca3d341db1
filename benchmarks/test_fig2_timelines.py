"""Figure 2 — the three adaptation timelines.

(a) a (normal) join: the request waits until the next adaptation point;
(b) a normal leave: the adaptation point is reached within the grace
    period, the process terminates there;
(c) an urgent leave: the grace period expires first, the process is
    migrated to another node and multiplexed there (idling the other
    t-2 nodes) until a normal leave at the next adaptation point.

Each scenario runs a calibrated Jacobi and its ``adapt`` instants are
rendered as a timeline; assertions pin the event ordering the figure depicts.
"""

import pytest

from repro.apps import Jacobi
from repro.bench.harness import run_experiment
from repro.obs import Registry


def timeline(result):
    instants = result.runtime.sim.obs.select_instants(category="adapt")
    return [(i.time, i.subject, i.detail) for i in instants]


def render(events):
    return "\n".join(f"t={t:9.4f}s  {s:<18} {d}" for t, s, d in events)


@pytest.fixture(scope="module")
def scenarios():
    out = {}
    # (a) join: submit early; absorbed at an adaptation point after setup
    out["join"] = run_experiment(
        lambda: Jacobi(350, 40),
        nprocs=3,
        extra_nodes=1,
        adaptive=True,
        obs=Registry(),
        events=lambda rt: rt.sim.schedule(0.01, lambda: rt.submit_join(3)),
    )
    # (b) normal leave: long grace, next adaptation point well inside it
    out["normal_leave"] = run_experiment(
        lambda: Jacobi(350, 40),
        nprocs=3,
        adaptive=True,
        obs=Registry(),
        events=lambda rt: rt.sim.schedule(
            0.05, lambda: rt.submit_leave(2, grace=3.0)
        ),
    )
    # (c) urgent leave: adaptation points ~0.9 s apart, grace only 0.15 s
    out["urgent_leave"] = run_experiment(
        lambda: Jacobi(1400, 8),
        nprocs=3,
        adaptive=True,
        obs=Registry(),
        events=lambda rt: rt.sim.schedule(
            0.5, lambda: rt.submit_leave(2, grace=0.15)
        ),
    )
    return out


def test_fig2_report(scenarios, report):
    parts = []
    for name, res in scenarios.items():
        parts.append(f"--- Figure 2 timeline: {name} ---")
        parts.append(render(timeline(res)))
        parts.append("")
    report("fig2_timelines", "\n".join(parts))


def test_join_waits_for_adaptation_point(scenarios):
    events = dict()
    for t, s, d in timeline(scenarios["join"]):
        events.setdefault(s, t)
    assert events["join_request"] < events["join_ready"] < events["adaptation_end"]
    res = scenarios["join"]
    assert res.adaptations == 1
    assert res.adapt_records[0].nprocs_after == 4


def test_normal_leave_inside_grace(scenarios):
    res = scenarios["normal_leave"]
    names = [s for _, s, _ in timeline(res)]
    assert "leave_request" in names
    assert "adaptation_end" in names
    # the grace never expired: no migration, no freeze
    assert "grace_expired" not in names
    assert "migrated" not in names
    assert res.migrations == []
    req_t = next(t for t, s, _ in timeline(res) if s == "leave_request")
    done_t = next(t for t, s, _ in timeline(res) if s == "adaptation_end")
    assert done_t - req_t < 3.0  # within the grace period


def test_urgent_leave_migrates_then_dissolves(scenarios):
    res = scenarios["urgent_leave"]
    names = [s for _, s, _ in timeline(res)]
    for expected in ("leave_request", "grace_expired", "freeze", "migrated",
                     "unfreeze", "urgent_leave", "adaptation_begin",
                     "adaptation_end"):
        assert expected in names, f"missing {expected} in urgent timeline"
    order = [s for _, s, _ in timeline(res)]
    assert order.index("grace_expired") < order.index("migrated")
    assert order.index("migrated") < order.index("adaptation_begin")
    assert len(res.migrations) == 1
    # multiplexing window: between migration and the adaptation point
    t_mig = next(t for t, s, _ in timeline(res) if s == "migrated")
    t_adapt = next(t for t, s, _ in timeline(res) if s == "adaptation_begin")
    assert t_adapt > t_mig  # the multiplexed phase exists
    assert res.adapt_records[-1].urgent_leaves


def test_urgent_costlier_than_normal(scenarios):
    """Figure 2's point: urgent leaves add migration + multiplexing on top
    of the normal-leave processing."""
    normal = scenarios["normal_leave"]
    urgent = scenarios["urgent_leave"]
    mig = urgent.migrations[0]
    # the migration alone (spawn + image copy) dwarfs the normal leave's
    # adaptation-point processing
    normal_cost = normal.adapt_records[0].duration
    assert mig.total_seconds > 5 * normal_cost

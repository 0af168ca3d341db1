#!/usr/bin/env python
"""A workday on a NOW: owners come and go, the computation adapts.

The §1 scenario: a long-running Jacobi relaxation occupies a pool of 8
workstations.  Owners arrive at their desks (their machines leave the
pool, each with a per-node grace period) and go to meetings or lunch
(their machines rejoin).  The computation is never stopped and needs no
application support — the adaptive runtime re-partitions at the next
parallel construct each time.

The day is a plan in the one event-script grammar (``time action
args...``, see ``repro.faults.plan``) — the same text ``repro run
--adaptive --faults FILE`` replays.

Run:  python examples/now_workday.py
"""

from repro.bench import make_jacobi
from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.core import AdaptiveRuntime, GracePolicy
from repro.faults import FaultInjector, parse_plan
from repro.network import Switch
from repro.simcore import Simulator

# The day's schedule, simulated "hours" compressed into 2 s: an owner at
# the desk takes the node out of the pool, an owner away gives it back.
# A leave with no GRACE argument uses the runtime's grace policy.
WORKDAY = """
1.0 leave 5    # node 5's owner: 0.5-1.5 h
1.6 leave 6    # node 6's owner: 0.8-1.2 h and 2.2-2.6 h
2.0 leave 7    # node 7's owner: 1.0-2.5 h
2.4 join 6
3.0 join 5
4.4 leave 6
5.0 join 7
5.2 join 6
"""


def main():
    sim = Simulator()
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    team = pool.add_nodes(8)

    # per-node grace periods: node 5's owner is impatient
    grace = GracePolicy(default=3.0, per_node={5: 1.0})
    rt = AdaptiveRuntime(sim, cfg, team, pool, grace_policy=grace,
                         materialized=False)

    app = make_jacobi(700, 700)  # long-running: ~10 s of simulated work
    program = app.program(rt)
    app.do_collect = False

    FaultInjector(rt, parse_plan(WORKDAY)).install()

    res = rt.run(program)

    print("== a workday on the NOW (Jacobi 700x700) ==")
    print(f"simulated runtime : {res.runtime_seconds:.2f} s")
    print(f"adapt events      : {res.adaptations}")
    print(f"network traffic   : {res.traffic.megabytes:.1f} MB, "
          f"{res.traffic.messages} messages")
    print("\nadaptation log:")
    for rec in res.adapt_log:
        kinds = []
        if rec.joins:
            kinds.append(f"join {rec.joins}")
        if rec.leaves:
            kinds.append(f"leave {rec.leaves}")
        if rec.urgent_leaves:
            kinds.append(f"URGENT leave {rec.urgent_leaves}")
        print(f"  t={rec.time:7.3f}s  {', '.join(kinds):<28} "
              f"team {rec.nprocs_before}->{rec.nprocs_after}  "
              f"cost {rec.duration * 1e3:6.1f} ms  "
              f"drained {rec.drained_pages} pages")
    if rt.migrations:
        print("\nmigrations (urgent leaves):")
        for mig in rt.migrations:
            print(f"  P{mig.pid}: node{mig.src_node} -> node{mig.dst_node}, "
                  f"{mig.image_bytes / 1e6:.1f} MB image, "
                  f"{mig.total_seconds:.2f} s")


if __name__ == "__main__":
    main()

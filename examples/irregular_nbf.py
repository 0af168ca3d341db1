#!/usr/bin/env python
"""The irregular kernel: NBF molecular-dynamics forces under adaptation.

NBF's array indices are partner-list lookups, not linear loop expressions
(§5.2) — so which pages move at an adaptation depends on the *data*.
This example runs the materialized kernel (real forces, verified against
a sequential reference) while a node leaves urgently: its grace period is
shorter than the gap between adaptation points, so the process is
migrated and multiplexed, then dissolved — and the physics still comes
out bit-correct.

Run:  python examples/irregular_nbf.py
"""

from repro.apps import NBF
from repro.cluster import NodePool
from repro.config import SystemConfig
from repro.core import AdaptiveRuntime
from repro.network import Switch
from repro.obs import Registry
from repro.simcore import Simulator


def main():
    sim = Simulator(obs=Registry())
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = AdaptiveRuntime(sim, cfg, pool.add_nodes(4), pool, materialized=True)

    # 256 partners per atom at Table 1's interaction rate => long regions
    app = NBF(natoms=1024, npartners=256, iterations=6)
    program = app.program(rt)

    # grace far shorter than the ~0.5 s between adaptation points
    sim.schedule(0.3, lambda: rt.submit_leave(2, grace=0.05))

    res = rt.run(program)

    print("== irregular NBF under an urgent leave ==")
    print(f"simulated runtime : {res.runtime_seconds:.2f} s")
    print(f"verified against sequential reference: {app.verify(rtol=1e-9, atol=1e-9)}")
    print(f"adaptations       : {res.adaptations}")
    for mig in rt.migrations:
        print(f"migration         : P{mig.pid} node{mig.src_node}->node{mig.dst_node} "
              f"({mig.spawn_seconds:.2f}s spawn + {mig.copy_seconds:.2f}s copy "
              f"of {mig.image_bytes / 1e6:.1f} MB)")
    print("\nadaptation trace:")
    for i in sim.obs.select_instants(category="adapt"):
        print(f"  [{i.time:12.6f}] {i.category:<18} {i.subject} {i.detail}")


if __name__ == "__main__":
    main()

"""Scaling sweep: flat vs tree synchronization across NOW sizes (§11).

The paper's cost model (§5.4) says adaptation and synchronization cost is
dominated by the *maximum traffic on any single link* — and the flat
fork/join protocol concentrates O(N) payload-carrying messages on the
master's links per parallel construct.  This sweep measures that directly:
it runs one sync-bound kernel at several team sizes under every
combination of synchronization shape (``flat`` master-centric vs ``tree``
combining tree) and interconnect (``star`` single switch vs ``fattree``
switch hierarchy), and reports

* simulated runtime and mean fork/join (barrier) latency,
* the maximum per-link busy time and the master-uplink busy time — the
  quantity the tree is built to shrink from O(N) toward O(log N),
* engine throughput (executed events per wall second).

``python -m repro scale`` writes the report; ``python -m repro report
--scale`` renders it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import Dict, Iterable, List, Sequence

SCALE_SCHEMA = "repro-scale/1"

#: Default team sizes of the sweep (the ISSUE's 32/64/128-node targets
#: plus the small sizes that anchor the curve).
DEFAULT_NODES = (8, 16, 32, 64, 128)

#: Sync shapes and interconnects swept.
SYNC_MODES = ("flat", "tree")
TOPOLOGIES = ("star", "fattree")


def _make_app(nodes: int, quick: bool = False):
    """A sync-bound Jacobi sized to the team: two rows per process.

    Small compute per barrier keeps the fork/join protocol (not the
    kernel) on the critical path, which is what the sweep measures.
    """
    from ..apps import Jacobi

    n = max(64, 2 * nodes)
    iterations = 8 if quick else 16
    return Jacobi(n=n, iterations=iterations)


def _config(sync: str, topology: str):
    from ..config import PerfParams, SystemConfig

    return SystemConfig().with_(
        perf=PerfParams(
            barrier_tree=(sync == "tree"),
            barrier_radix=4,
            topology=topology,
            topology_radix=8,
        )
    )


def run_scale_point(
    nodes: int, sync: str, topology: str, quick: bool = False
) -> Dict:
    """One (team size, sync shape, interconnect) measurement."""
    from ..obs.core import TRACK_MASTER, Registry
    from .harness import run_experiment

    obs = Registry(per_process=False)
    cfg = _config(sync, topology)
    t0 = time.perf_counter()
    exp = run_experiment(
        lambda: _make_app(nodes, quick), nodes, cfg=cfg, obs=obs
    )
    wall = time.perf_counter() - t0
    sim = exp.runtime.sim
    busy = exp.runtime.switch.link_report()
    fj = [
        s.end - s.start
        for s in obs.spans
        if s.track == TRACK_MASTER and s.name == "fork_join"
    ]
    traffic = exp.traffic
    entry = {
        "nodes": nodes,
        "sync": sync,
        "topology": topology,
        "sim_seconds": exp.runtime_seconds,
        "wall_seconds": wall,
        "events": sim.events_executed,
        "events_per_sec": sim.events_executed / wall if wall > 0 else 0.0,
        "forks": exp.forks,
        "messages": traffic.messages,
        "bytes": traffic.bytes,
        "fork_join_mean_s": sum(fj) / len(fj) if fj else 0.0,
        "max_link_busy_s": max(busy.values()) if busy else 0.0,
        "master_uplink_busy_s": busy.get("up0", 0.0),
        "master_downlink_busy_s": busy.get("down0", 0.0),
        "max_link_bytes": (
            max(traffic.per_link_bytes.values())
            if traffic.per_link_bytes else 0
        ),
        # Deterministic fingerprint of the modelled outputs; equal across
        # repeats of the same configuration (the CI smoke asserts this).
        "digest": hashlib.sha256(
            json.dumps(
                [exp.runtime_seconds, traffic.messages, traffic.bytes],
                sort_keys=True,
            ).encode()
        ).hexdigest(),
    }
    return entry


def run_scale(
    nodes: Sequence[int] = DEFAULT_NODES,
    quick: bool = False,
    sync_modes: Iterable[str] = SYNC_MODES,
    topologies: Iterable[str] = TOPOLOGIES,
) -> Dict:
    """The full sweep: every (nodes, sync, topology) combination."""
    scale: Dict[str, Dict] = {}
    for n in nodes:
        for sync in sync_modes:
            for topology in topologies:
                key = f"jacobi-{n}-{sync}-{topology}"
                scale[key] = run_scale_point(n, sync, topology, quick=quick)
    return {
        "schema": SCALE_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "scale": scale,
    }


def format_scale_table(report: Dict) -> str:
    """Render a scale report as the ``repro report --scale`` table."""
    scale = report.get("scale", {})
    rows: List[Dict] = sorted(
        scale.values(), key=lambda e: (e["nodes"], e["sync"], e["topology"])
    )
    header = (
        f"{'nodes':>5}  {'sync':<5} {'topology':<8} "
        f"{'sim_s':>9} {'barrier_ms':>10} {'max_link_busy_ms':>16} "
        f"{'master_up_ms':>12} {'events/s':>10}"
    )
    lines = [header, "-" * len(header)]
    for e in rows:
        lines.append(
            f"{e['nodes']:>5}  {e['sync']:<5} {e['topology']:<8} "
            f"{e['sim_seconds']:>9.4f} {e['fork_join_mean_s'] * 1e3:>10.3f} "
            f"{e['max_link_busy_s'] * 1e3:>16.3f} "
            f"{e['master_uplink_busy_s'] * 1e3:>12.3f} "
            f"{e['events_per_sec']:>10.0f}"
        )
    # Per-size flat->tree summary of the headline quantity.
    by_size: Dict[int, Dict[str, float]] = {}
    for e in rows:
        if e["topology"] != "star":
            continue
        by_size.setdefault(e["nodes"], {})[e["sync"]] = e[
            "master_uplink_busy_s"
        ]
    summary = [
        "",
        "master uplink busy time, flat -> tree (star):",
    ]
    for n in sorted(by_size):
        pair = by_size[n]
        if "flat" in pair and "tree" in pair and pair["flat"] > 0:
            cut = 1.0 - pair["tree"] / pair["flat"]
            summary.append(
                f"  {n:>4} nodes: {pair['flat'] * 1e3:8.3f} ms -> "
                f"{pair['tree'] * 1e3:8.3f} ms  ({cut:.1%} reduction)"
            )
    return "\n".join(lines + summary)


def write_scale_report(report: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scale_report(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)

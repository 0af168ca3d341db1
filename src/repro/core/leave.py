"""Normal-leave protocol (§4.2).

After the adaptation-point GC, every page is valid somewhere with a known
owner.  The master then (i) fetches every page exclusively owned by the
leaving process for which the master itself holds no valid copy, and
(ii) tells all other processes that it now owns those pages.  This
master-centric transfer is the bottleneck the paper's §7 names as future
work — the Figure-2/§5.4 benches show the per-link concentration.
"""

from __future__ import annotations

from typing import Generator, List

from ..network import message as mk


def absorb_leaver_pages(runtime, leaver) -> Generator:
    """Master-side: pull the leaver's exclusively-owned pages, take ownership."""
    master = runtime.master
    sim = runtime.sim
    npages = runtime.space.total_pages
    lrc = master.lrc
    owner = lrc.table.owner
    owned = [p for p in range(npages) if owner[p] == leaver.pid]

    to_fetch: List[int] = [p for p in owned if not lrc.readable(p)]

    yield from master.pull_pages([(p, leaver.pid) for p in to_fetch], mk.PAGE_REQ)
    sim.obs.instant(
        sim.now, "adapt", "leave_drain",
        f"{leaver.name}: {len(to_fetch)} pages fetched of {len(owned)} owned",
    )

    # Ownership moves to the master, everywhere.
    for page in owned:
        owner[page] = master.pid
    targets = [
        pid for pid in runtime.team.pids if pid not in (master.pid, leaver.pid)
    ]
    if owned and targets:
        # The master's hop of the drain broadcast; every target relays it
        # on through the synchronization tree (one level: none does).
        tree = master.tree_barrier
        tree.relay_owner_update({"pages": list(owned), "targets": targets,
                                 "radix": tree.radix})
    return len(to_fetch), len(owned)

"""Join protocol (§4.1).

The master spawns a process on the joining node.  While the computation
continues, the new process asynchronously connects to every slave and
finally to the master — when the master sees that connection, the joiner
is ready.  At the next adaptation point (after the GC) the master sends
the joiner one message describing, for every shared page, where an
up-to-date copy lives and which protocol the page uses; data then flows
lazily through ordinary page faults.
"""

from __future__ import annotations

from typing import Generator

from ..errors import NetworkError
from ..network import message as mk
from ..network.message import Message, next_req_id
from .adaptation import JoinRequest, RequestState


def connection_setup(runtime, req: JoinRequest) -> Generator:
    """Background coroutine: spawn + connect, then mark the join ready."""
    sim = runtime.sim
    node = runtime.pool.node(req.node_id)
    spawn = runtime.cfg.migration.spawn_time(runtime.rng.uniform("join.spawn"))
    yield sim.timeout(spawn)

    # Connect to all slaves first, to the master last (§4.1) — so a
    # connection seen by the master implies the rest are up.
    targets = [runtime.team.node_of(pid) for pid in runtime.team.slave_pids]
    targets.append(runtime.team.node_of(runtime.team.MASTER_PID))
    for dst in targets:
        if dst == node.node_id:
            continue
        try:
            msg = Message(
                mk.CONNECT,
                src=node.node_id,
                dst=dst,
                size_bytes=16,
                req_id=next_req_id(),
            )
            yield node.nic.request(msg)
        except NetworkError:
            # The peer withdrew while we were connecting; the final
            # membership is fixed at the adaptation point anyway.
            continue
    if req.state is RequestState.CANCELLED:
        # Crash recovery cancelled this join while we were connecting.
        return
    req.state = RequestState.READY
    req.ready_at = sim.now
    sim.tracer.emit("adapt", "join_ready", f"node{req.node_id}")


def ship_page_map(runtime, joiner) -> None:
    """Send the joiner the page-location map (one message, §4.1)."""
    master = runtime.master
    npages = runtime.space.total_pages
    size = npages * runtime.cfg.dsm.page_descriptor_bytes
    owners = {
        page: master.owner_of(page) for page in range(npages)
    }
    master.send(mk.PAGE_MAP, joiner.pid, {"owners": owners}, size=size)
    obs = runtime.sim.obs
    if obs.enabled:
        obs.count("adapt.page_map_messages")
        obs.count("adapt.page_map_bytes", size)


def ship_page_maps(runtime, joiners) -> None:
    """Ship page-location maps to every joiner of this adaptation round.

    Flat mode (and the single-joiner case, where the direct message is
    already the cheapest route) sends one PAGE_MAP per joiner from the
    master, exactly as before.  With the combining tree enabled
    (PROTOCOL.md §11) and several joiners absorbed at once, the master
    instead sends one map per tree-child subtree containing joiners; each
    relay hop forwards it toward the remaining ``targets``
    (``DsmProcess.relay_page_map``), so the master's link
    carries at most ``radix`` map payloads however many processes join.
    """
    master = runtime.master
    if master.tree_barrier is None or len(joiners) <= 1:
        for joiner in joiners:
            ship_page_map(runtime, joiner)
        return
    owners = {
        page: master.owner_of(page) for page in range(runtime.space.total_pages)
    }
    master.relay_page_map(owners, sorted(j.pid for j in joiners))

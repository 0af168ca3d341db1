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
from ..network.message import Message
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
    sim.obs.instant(sim.now, "adapt", "join_ready", f"node{req.node_id}")


def ship_page_maps(runtime, joiners) -> None:
    """Ship the page-location map to every joiner of this adaptation round.

    A lone joiner gets it straight from the master — already the
    cheapest route, the paper's one message (§4.1).  Several are reached
    through the synchronization tree (PROTOCOL.md §11): the master sends
    one map per child subtree holding joiners and each relay hop forwards
    it toward the remaining ``targets`` (``TreeBarrier.relay_page_map``),
    so the master's link carries at most ``radix`` map payloads however
    many processes join.  With one level that is one map per joiner.
    """
    if not joiners:
        return
    master = runtime.master
    # A copy: the master keeps writing its column while the map is in flight.
    owners = list(master.lrc.table.owner)
    targets = sorted(j.pid for j in joiners)
    master.tree_barrier.relay_page_map(owners, targets, direct=len(targets) == 1)

"""Master-driven heartbeat failure detection.

The master probes every slave node over the ordinary NIC — heartbeats
share the wire and the slave's handler CPU with protocol traffic, so a
node buried in page requests acks late and a congested link can produce
*false suspicions* (counted, and healed by the next ack).  A node missing
``suspicion_threshold`` consecutive probes is declared crashed and handed
to the recovery orchestrator; the declaration is fenced by killing the
node, so a merely-partitioned node cannot resurface mid-recovery.

Heartbeat kinds are control-plane: the wire's loss and duplication leave
them alone (a real implementation retransmits probes anyway — a lost probe
is indistinguishable from a missed one and simply counts as a miss).
"""

from __future__ import annotations

from typing import Dict, Generator

from ..config import FaultParams
from ..errors import NetworkError
from ..network import message as mk
from ..network.message import Message
from ..network.nic import ReplyWait


class FailureDetector:
    """Periodic heartbeat rounds from the master to every slave node."""

    def __init__(self, runtime, params: FaultParams):
        self.runtime = runtime
        self.params = params
        self.heartbeats_sent = 0
        self.heartbeat_misses = 0
        self.false_suspicions = 0
        #: node id -> consecutive missed probes.
        self._misses: Dict[int, int] = {}
        self._proc = None

    def start(self) -> None:
        """Launch the detector loop (idempotent; no-op if disabled)."""
        if self.params.heartbeat_interval <= 0:
            return
        if self._proc is not None and self._proc.alive:
            return
        self._proc = self.runtime.sim.process(
            self._loop(), name="failure.detector", daemon=True
        )

    def reset(self) -> None:
        """Forget suspicion state (after a recovery rebuilt the team)."""
        self._misses.clear()

    # -- internals ------------------------------------------------------
    def _loop(self) -> Generator:
        runtime = self.runtime
        sim = runtime.sim
        while not runtime.finished:
            yield sim.timeout(self.params.heartbeat_interval)
            if runtime.finished or runtime._recovering:
                continue
            master = runtime.master
            if master.node.crashed:
                # The probing end itself died; any survivor would notice
                # the silence — the detector stands in for that survivor.
                runtime._declare_crashed(master.node.node_id, reason="heartbeat")
                continue
            for pid in runtime.team.slave_pids:
                node_id = runtime.team.node_of(pid)
                self._probe(master, pid, node_id)

    def _probe(self, master, pid: int, node_id: int) -> None:
        nic = master.node.nic
        msg = Message(
            mk.HEARTBEAT,
            src=master.node.node_id,
            dst=node_id,
            size_bytes=4,
            req_id=mk.next_req_id(),
            src_pid=master.pid,
            dst_pid=pid,
        )
        self.heartbeats_sent += 1
        obs = self.runtime.sim.obs
        if obs.enabled:
            obs.count("detector.heartbeats_sent")
        try:
            nic.send(msg)
        except NetworkError:
            # The peer's (or our own) port is dark: instant miss.
            self._miss(node_id)
            return
        # No re-send: the deadline is the probe's one timeout, and a late
        # ack finds no reply-table entry and is dropped.
        ReplyWait(nic, msg, rto=self.params.heartbeat_timeout, retries=0).subscribe(
            lambda ack, exc: self._miss(node_id) if exc else self._ack(node_id))

    def _ack(self, node_id: int) -> None:
        if self._misses.get(node_id, 0) > 0:
            self.false_suspicions += 1
            obs = self.runtime.sim.obs
            if obs.enabled:
                obs.count("detector.false_suspicions")
            self.runtime.sim.tracer.emit(
                "fault", "suspicion_cleared", f"node{node_id}"
            )
        self._misses[node_id] = 0

    def _miss(self, node_id: int) -> None:
        runtime = self.runtime
        if runtime.finished or runtime._recovering:
            return
        if not runtime.team.has_node(node_id):
            return  # the team changed while the probe was in flight
        self.heartbeat_misses += 1
        obs = runtime.sim.obs
        if obs.enabled:
            obs.count("detector.heartbeat_misses")
        count = self._misses.get(node_id, 0) + 1
        self._misses[node_id] = count
        runtime.sim.tracer.emit(
            "fault", "heartbeat_miss", f"node{node_id} {count}/{self.params.suspicion_threshold}"
        )
        if count >= self.params.suspicion_threshold:
            runtime._declare_crashed(node_id, reason="heartbeat")

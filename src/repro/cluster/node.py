"""A workstation node of the NOW.

A node owns a switch port (NIC), a CPU with a relative speed factor, and a
count of resident computation processes.  When an urgent leave multiplexes
two DSM processes onto one node (§3, Figure 2.c), both resident processes
see their compute time stretched — which idles the other ``t − 2`` nodes at
the next synchronization, exactly the effect the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..simcore import Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..network import Nic, Switch


class Node:
    """One workstation: CPU + network port + owner state."""

    def __init__(self, sim: Simulator, switch: "Switch", node_id: int, speed: float = 1.0):
        if speed <= 0:
            raise ValueError("node speed must be positive")
        self.sim = sim
        self.node_id = node_id
        self.speed = speed
        self.switch = switch
        self.nic: "Nic" = switch.attach(node_id)
        #: Number of DSM processes currently multiplexed on this CPU.
        self.resident_processes = 0
        #: Serializes protocol-request service times on this node.
        self.handler_cpu = Resource(sim, capacity=1, name=f"node{node_id}.handler")
        #: False once the workstation owner reclaimed the machine.
        self.in_pool = True
        #: Accumulated compute seconds executed on this CPU.
        self.busy_time = 0.0
        #: True after a fail-stop crash; the node never comes back.
        self.crashed = False
        #: Simulated time of the crash (None while healthy).
        self.crashed_at: Optional[float] = None

    @property
    def multiplex_factor(self) -> int:
        """How many computation processes share the CPU (>= 1)."""
        return max(1, self.resident_processes)

    def add_process(self) -> None:
        self.resident_processes += 1

    def remove_process(self) -> None:
        if self.resident_processes <= 0:
            raise RuntimeError(f"node {self.node_id}: no resident process to remove")
        self.resident_processes -= 1

    def compute(self, seconds: float) -> Generator:
        """Charge ``seconds`` of single-process CPU work.

        The charge is stretched by the multiplex factor sampled at the start
        of the chunk and by the node's speed.  Callers split long work into
        per-iteration chunks, so factor changes take effect quickly.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        stretched = seconds * self.multiplex_factor / self.speed
        self.busy_time += stretched
        yield self.sim.timeout(stretched)

    def service(self, seconds: float) -> Generator:
        """Charge request-service time, serialized with other handlers."""
        yield self.handler_cpu.acquire()
        try:
            yield self.sim.timeout(seconds / self.speed)
        finally:
            self.handler_cpu.release()

    def withdraw(self) -> None:
        """The owner reclaims the node (after any leave completes)."""
        self.in_pool = False
        self.nic.detach()

    def rejoin(self) -> None:
        """The node becomes available again."""
        if self.crashed:
            raise RuntimeError(f"node {self.node_id} crashed and cannot rejoin")
        self.in_pool = True
        self.nic.reattach()

    def crash(self, now: float) -> None:
        """Fail-stop: power off the workstation, permanently.

        All resident processes die with the machine (the caller kills their
        coroutines); the NIC goes dark, so in-flight messages to this node
        are lost and later sends raise :class:`~repro.errors.NetworkError`.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashed_at = now
        self.in_pool = False
        self.resident_processes = 0
        self.nic.detach()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} res={self.resident_processes} pool={self.in_pool}>"

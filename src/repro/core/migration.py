"""libckpt-style process migration (§4.2, §5.3).

Migration writes the heap and stack of the leaving process to a freshly
created process on another node.  The paper measures two direct cost
components: creating the remote process (0.6–0.8 s) and copying the image
at ≈ 8.1 MB/s.  The copy occupies the source uplink and destination
downlink for its duration (it is network traffic) and is accounted as one
large MIGRATE_IMAGE transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..errors import MigrationError
from ..network import message as mk
from ..network.message import Message
from ..obs.core import TRACK_NETWORK


@dataclass
class MigrationOutcome:
    """What one migration cost (Figure 2.c / §5.3 accounting)."""

    pid: int
    src_node: int
    dst_node: int
    image_bytes: int
    spawn_seconds: float
    copy_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.spawn_seconds + self.copy_seconds


def migrate_process(runtime, proc, dst_node) -> Generator:
    """Move ``proc`` onto ``dst_node``; yields until the image has landed.

    The caller (urgent-leave orchestration) is responsible for freezing
    the computation around this, per §4.2: "all processes then wait for
    the completion of the migration".
    """
    src_node = proc.node
    if dst_node.node_id == src_node.node_id:
        raise MigrationError(f"migrating {proc.name} onto its own node")
    if not dst_node.in_pool:
        raise MigrationError(f"target node {dst_node.node_id} is not available")
    sim = runtime.sim
    mig = runtime.cfg.migration
    t0 = sim.now

    # 1. create the new process on the destination host
    spawn = mig.spawn_time(runtime.rng.uniform("migration.spawn"))
    yield sim.timeout(spawn)

    # 2. set up interprocess connections (one small message per peer)
    for pid in runtime.team.pids:
        if pid != proc.pid:
            peer = runtime.team.node_of(pid)
            if peer != dst_node.node_id:
                dst_node.nic.send(
                    Message(mk.CONNECT, src=dst_node.node_id, dst=peer, size_bytes=16)
                )

    # 3. copy heap + stack; occupy both port directions for the duration
    image = proc.resident_image_bytes()
    copy_seconds = mig.copy_time(image)
    switch = runtime.switch
    up = switch.uplinks[src_node.node_id]
    down = switch.downlinks[dst_node.node_id]
    start = max(sim.now, up.busy_until, down.busy_until)
    for link in (up, down):
        end = link.occupy(start, image, copy_seconds)
    switch.stats.record(mk.MIGRATE_IMAGE, image)
    yield sim.timeout(end - sim.now)

    # 4. transplant the DSM engine onto the destination
    proc.move_to_node(dst_node)
    runtime.team.move_pid(proc.pid, dst_node.node_id)
    sim.obs.instant(sim.now, "adapt", "migrated",
                    f"{proc.name} node{src_node.node_id}->node{dst_node.node_id}")
    obs = sim.obs
    if obs.enabled:
        obs.span(
            TRACK_NETWORK,
            "migration.spawn",
            t0,
            t0 + spawn,
            category="migration",
            pid=proc.pid,
            dst=dst_node.node_id,
        )
        obs.span(
            TRACK_NETWORK,
            "migration.copy",
            t0 + spawn,
            sim.now,
            category="migration",
            pid=proc.pid,
            image_bytes=image,
            src=src_node.node_id,
            dst=dst_node.node_id,
        )
        obs.count("migration.count")
        obs.count("migration.image_bytes", image)
    return MigrationOutcome(
        pid=proc.pid,
        src_node=src_node.node_id,
        dst_node=dst_node.node_id,
        image_bytes=image,
        spawn_seconds=spawn,
        copy_seconds=sim.now - t0 - spawn,
    )

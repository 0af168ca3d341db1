"""Fault tolerance by adaptation-point checkpointing (§4.3).

At an adaptation point the slaves hold no private process state — only
shared memory.  So a checkpoint is: (1) garbage-collect, (2) the master
fetches every page it lacks a valid copy of, (3) the master libckpt's
itself to disk.  No coordination with slaves, no message logging.

Recovery restores the shared memory with the master owning every page.
Python cannot freeze a generator mid-flight the way libckpt freezes a
process image, so the master's driver is rebuilt by re-execution: a
checkpoint records the phase names the driver had forked, and the
restarted driver replays through them at no cost before it runs for real
(:meth:`~repro.dsm.runtime.TmkRuntime._replayed`).  A driver whose
control flow depends on shared data cannot be replayed; the replay
detects the divergence and raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointError
from ..network import message as mk


@dataclass
class Checkpoint:
    """One on-disk checkpoint image (master process + all shared pages)."""

    time: float
    epoch: int
    nprocs: int
    total_pages: int
    image_bytes: int
    write_seconds: float
    #: seg name -> raw bytes of the whole segment (materialized mode only).
    segment_data: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Phase names the driver had forked when the checkpoint was taken.
    phases: Tuple[str, ...] = ()


class CheckpointManager:
    """Periodic checkpointing driven from adaptation points."""

    def __init__(self, runtime, interval: Optional[float] = None):
        self.runtime = runtime
        self.interval = interval
        self.last_time = 0.0
        self.checkpoints: List[Checkpoint] = []

    @property
    def last(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def due(self, now: float) -> bool:
        return self.interval is not None and now - self.last_time >= self.interval

    def take(self) -> Generator:
        """Take a checkpoint now (caller guarantees a fresh GC happened)."""
        runtime = self.runtime
        master = runtime.master
        sim = runtime.sim
        npages = runtime.space.total_pages

        # 1. collect every page the master has no valid copy of
        lrc = master.lrc
        missing = [
            (page, lrc.owner_of(page))
            for page in range(npages)
            if not lrc.readable(page)
        ]
        yield from master.pull_pages(missing, mk.CKPT_PAGE_REQ)

        # 2. write the master image (its process image + all shared pages)
        cp = runtime.cfg.checkpoint
        image = (
            npages * runtime.cfg.dsm.page_size
            + runtime.cfg.migration.image_overhead_bytes
        )
        write_seconds = cp.fixed_cost + image / cp.disk_rate
        yield sim.timeout(write_seconds)

        segment_data = {}
        if master.materialized:
            for seg in runtime.space.segments.values():
                segment_data[seg.name] = master.store.buffer(seg)[: seg.nbytes].copy()

        ckpt = Checkpoint(
            time=sim.now,
            epoch=lrc.epoch,
            nprocs=runtime.team.nprocs,
            total_pages=npages,
            image_bytes=image,
            write_seconds=write_seconds,
            segment_data=segment_data,
            phases=tuple(runtime.phases),
        )
        self.checkpoints.append(ckpt)
        self.last_time = sim.now
        sim.obs.instant(sim.now, "adapt", "checkpoint",
                        f"{len(missing)} pages collected, {image} B image")


def restore_checkpoint(runtime, ckpt: Checkpoint) -> None:
    """Load ``ckpt`` into ``runtime`` and arm the driver's replay.

    The runtime is fresh (before ``run``) or being recovered: the crash
    orchestrator has halted the computation and rebuilt fresh engines (no
    open write sets, zero vector clocks, empty interval logs).  The master
    becomes the valid owner of every shared page; every process's owner
    column names the master, exactly as after recovery in the real system.
    The next driver run replays the checkpoint's forks and continues for
    real from the first fork past them.
    """
    driver = runtime._driver_proc
    if runtime.finished or (driver is not None and driver.alive):
        raise CheckpointError("restore_checkpoint needs a stopped driver")
    if ckpt.total_pages != runtime.space.total_pages:
        raise CheckpointError(
            f"checkpoint covers {ckpt.total_pages} pages, "
            f"address space has {runtime.space.total_pages}"
        )
    master = runtime.master
    for proc in runtime.procs.values():
        proc.lrc.table.owner[:] = [master.pid] * runtime.space.total_pages
    for seg in runtime.space.segments.values():
        if master.materialized:
            data = ckpt.segment_data.get(seg.name)
            if data is None:
                raise CheckpointError(f"checkpoint lacks segment {seg.name!r}")
            if data.shape[0] != seg.nbytes:
                raise CheckpointError(f"checkpoint size mismatch for {seg.name!r}")
            master.store.buffer(seg)[: seg.nbytes] = data
        for page in seg.pages:
            if page not in master.lrc.table:
                master.lrc.map_page(page)  # restored pages count in the image
            master.lrc.table.valid[page] = 1
    runtime.replay = ckpt.phases

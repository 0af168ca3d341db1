"""Fault tolerance by adaptation-point checkpointing (§4.3).

At an adaptation point the slaves hold no private process state — only
shared memory.  So a checkpoint is: (1) garbage-collect, (2) the master
fetches every page it lacks a valid copy of, (3) the master libckpt's
itself to disk.  No coordination with slaves, no message logging.

Recovery restores the shared memory into a fresh runtime with the master
owning every page.  (Python cannot freeze a generator mid-flight the way
libckpt freezes a process image, so the *program driver* is restarted and
resumes only from application-level state kept in shared memory.  Of the
bundled kernels only ``ResumableJacobi`` (``jacobi-resumable``) keeps its
iteration counter there; the four stock kernels' drivers rewrite the
initial data and re-run from iteration 0.  The checkpoint cost model is
unaffected by this deviation; see DESIGN.md.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

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
        missing = [
            (page, master.owner_of(page))
            for page in range(npages)
            if not master.readable(page)
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
            epoch=master.epoch,
            nprocs=runtime.team.nprocs,
            total_pages=npages,
            image_bytes=image,
            write_seconds=write_seconds,
            segment_data=segment_data,
        )
        self.checkpoints.append(ckpt)
        self.last_time = sim.now
        sim.obs.instant(sim.now, "adapt", "checkpoint",
                        f"{len(missing)} pages collected, {image} B image")


def _install_segments(runtime, ckpt: Checkpoint) -> None:
    """Load the checkpoint image into the current master's memory.

    The master becomes the valid owner of every shared page; every
    process's owner column names the master, exactly as after recovery in
    the real system.
    """
    master = runtime.master
    for proc in runtime.procs.values():
        proc.table.owner[:] = [master.pid] * runtime.space.total_pages
    for seg in runtime.space.segments.values():
        if master.materialized:
            data = ckpt.segment_data.get(seg.name)
            if data is None:
                raise CheckpointError(f"checkpoint lacks segment {seg.name!r}")
            if data.shape[0] != seg.nbytes:
                raise CheckpointError(f"checkpoint size mismatch for {seg.name!r}")
            master.store.buffer(seg)[: seg.nbytes] = data
        for page in seg.pages:
            if page not in master.table:
                master._map(page)  # restored pages count in the image
            master.table.valid[page] = 1


def restore_checkpoint(runtime, ckpt: Checkpoint) -> None:
    """Load a checkpoint into a *fresh* runtime (before ``run``)."""
    if runtime.fork_seq != 0:
        raise CheckpointError("restore_checkpoint must precede run()")
    _install_segments(runtime, ckpt)


def restore_checkpoint_live(runtime, ckpt: Checkpoint) -> None:
    """Load a checkpoint into a *running* runtime during crash recovery.

    The caller (the recovery orchestrator) guarantees the computation is
    quiesced and the process engines are freshly rebuilt: no open write
    sets, zero vector clocks, empty interval logs.
    """
    if ckpt.total_pages != runtime.space.total_pages:
        raise CheckpointError(
            f"checkpoint covers {ckpt.total_pages} pages, "
            f"address space has {runtime.space.total_pages}"
        )
    _install_segments(runtime, ckpt)

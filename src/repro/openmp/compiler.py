"""OpenMP → TreadMarks lowering (the SUIF-based translator of §2).

The real system encapsulates each parallel-loop body into a procedure,
replaces the loop with ``Tmk_fork(procedure)``, and emits code inside the
procedure that computes the iterations to execute from the TreadMarks
process id and the total process count, ending with ``Tmk_join``.

This module performs exactly that transformation on :class:`OmpProgram`
objects: every :class:`ParallelFor` becomes a TmkProgram *phase* whose
region recomputes its chunks from ``(pid, nprocs)`` at every fork — the
lynchpin of transparent adaptation.
"""

from __future__ import annotations

from typing import Any, Generator

from ..dsm.runtime import MasterApi, RegionCtx, TmkProgram
from .program import OmpApi, OmpProgram, ParallelFor


def _lower_loop(loop: ParallelFor):
    """Encapsulate one parallel loop body into a fork/join region."""

    def region(ctx: RegionCtx, pid: int, nprocs: int, args: Any) -> Generator:
        n = loop.iteration_count(args)
        # The compiler-emitted partitioning code: executed at *every* fork
        # with the then-current (pid, nprocs).
        for lo, hi in loop.schedule.chunks(n, pid, nprocs):
            yield from loop.body(ctx, lo, hi, args)

    region.__name__ = f"omp_region_{loop.name}"
    return region


def compile_openmp(program: OmpProgram) -> TmkProgram:
    """Lower an OpenMP program to TreadMarks fork/join form."""
    phases = {loop.name: _lower_loop(loop) for loop in program.loops}

    def driver(api: MasterApi) -> Generator:
        omp = OmpApi(api, program)
        yield from program.driver(omp)

    tmk = TmkProgram(phases, driver, name=program.name)
    tmk.adaptable = program.adaptable
    return tmk

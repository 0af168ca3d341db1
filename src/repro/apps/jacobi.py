"""Jacobi — iterative 2-D relaxation (§5.2).

Paper configuration: 2500 × 2500 doubles, 1000 iterations, 47.8 MB of
shared memory.  A 2500-double row is 20 000 bytes — *not* page aligned —
so neighbouring partitions share boundary pages and the multiple-writer
twin/diff machinery engages: Jacobi is the one Table 1 kernel with a
non-zero diff count.

Each iteration is two parallel constructs (exactly what the SUIF
translator emits for the two loops): a *sweep* writing the scratch array
from the grid's 4-neighbour stencil, and a *copy* writing the grid back
from scratch.  Between-partition traffic is the two boundary rows per
neighbour pair.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..dsm import Protocol
from ..openmp import ParallelFor
from .base import AppKernel, table1_rate


class Jacobi(AppKernel):
    name = "jacobi"
    PARAMS = ("n", "iterations")
    #: A copy pass costs this fraction of an update pass.
    COPY_FRACTION = 0.25
    #: Seconds per grid-point update (:func:`table1_rate`, set below).
    RATE: float
    #: Seconds per grid-point copy.
    COPY_RATE: float

    def __init__(self, n: int = 2500, iterations: int = 1000, seed: int = 1234):
        super().__init__()
        if n < 3:
            raise ValueError("Jacobi needs n >= 3")
        self.n = n
        self.iterations = iterations
        self.seed = seed

    def ops(self) -> float:
        """Grid-point updates, the copy pass weighted at its fraction."""
        return self.n * self.n * self.iterations * (1.0 + self.COPY_FRACTION)

    # -- setup ---------------------------------------------------------------
    def allocate(self, rt) -> None:
        # Row size n*8 B: for the paper's 2500 this is unaligned, forcing
        # multiple-writer boundary pages (the source of Jacobi's diffs).
        self.shared(rt, "grid", (self.n, self.n), "float64", Protocol.MULTIPLE_WRITER)
        self.shared(rt, "scratch", (self.n, self.n), "float64", Protocol.MULTIPLE_WRITER)

    def initial_grid(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        grid = rng.random((self.n, self.n))
        grid[0, :] = 1.0
        grid[-1, :] = 0.0
        grid[:, 0] = 0.5
        grid[:, -1] = 0.25
        return grid

    # -- parallel constructs ---------------------------------------------------
    def loops(self) -> List[ParallelFor]:
        return [
            ParallelFor("sweep", self.n, self._sweep_body),
            ParallelFor("copy", self.n, self._copy_body),
        ]

    def _sweep_body(self, ctx, lo: int, hi: int, args) -> Generator:
        grid, scratch = self.arrays["grid"], self.arrays["scratch"]
        n = self.n
        wlo, whi = max(lo, 1), min(hi, n - 1)  # interior rows only
        if whi <= wlo:
            return
        yield from ctx.access(
            grid.seg,
            reads=grid.rows(wlo - 1, whi + 1),  # stencil needs halo rows
        )
        yield from ctx.access(scratch.seg, writes=scratch.rows(wlo, whi))
        if ctx.materialized:
            g = grid.view(ctx)
            s = scratch.view(ctx)
            s[wlo:whi, 1:-1] = 0.25 * (
                g[wlo - 1 : whi - 1, 1:-1]
                + g[wlo + 1 : whi + 1, 1:-1]
                + g[wlo:whi, :-2]
                + g[wlo:whi, 2:]
            )
        yield from ctx.compute((whi - wlo) * n * self.RATE)

    def _copy_body(self, ctx, lo: int, hi: int, args) -> Generator:
        grid, scratch = self.arrays["grid"], self.arrays["scratch"]
        n = self.n
        wlo, whi = max(lo, 1), min(hi, n - 1)
        if whi <= wlo:
            return
        yield from ctx.access(scratch.seg, reads=scratch.rows(wlo, whi))
        yield from ctx.access(grid.seg, writes=grid.rows(wlo, whi))
        if ctx.materialized:
            g = grid.view(ctx)
            s = scratch.view(ctx)
            g[wlo:whi, 1:-1] = s[wlo:whi, 1:-1]
        yield from ctx.compute((whi - wlo) * n * self.COPY_RATE)

    # -- driver ---------------------------------------------------------------
    def driver(self, omp) -> Generator:
        ctx = omp.ctx
        grid = self.arrays["grid"]
        yield from ctx.access(grid.seg, writes=grid.full())
        if ctx.materialized:
            grid.view(ctx)[:] = self.initial_grid()
        for _ in range(self.iterations):
            yield from omp.parallel_for("sweep")
            yield from omp.parallel_for("copy")
        yield from self.collect(ctx, ["grid"])

    # -- verification ------------------------------------------------------------
    def reference(self) -> dict:
        grid = self.initial_grid()
        for _ in range(self.iterations):
            interior = 0.25 * (
                grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
            )
            grid[1:-1, 1:-1] = interior
        return {"grid": grid}


Jacobi.RATE = table1_rate(Jacobi)
Jacobi.COPY_RATE = Jacobi.RATE * Jacobi.COPY_FRACTION

"""Gauss — Gaussian elimination without pivoting (§5.2).

Paper configuration: 3072 × 3072 doubles, 3072 iterations, 48 MB shared.
A 3072-double row is 24 576 bytes = exactly 6 pages, so rows (and block
partitions) are page aligned: every page has a single writer and Table 1
reports zero diffs — faults are whole-page fetches of the pivot row.

One parallel construct per elimination step ``k``: every process reads
the pivot row and updates its own rows below ``k``.  The static block
schedule means processes fall idle as ``k`` passes their block, which is
what the published page counts reflect.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..openmp import ParallelFor
from .base import AppKernel, auto_protocol, table1_rate


class Gauss(AppKernel):
    name = "gauss"
    PARAMS = ("n", "iterations")
    #: Seconds per updated matrix element (:func:`table1_rate`, set below).
    RATE: float

    def __init__(self, n: int = 3072, iterations: int | None = None,
                 seed: int = 4321):
        super().__init__()
        if n < 2:
            raise ValueError("Gauss needs n >= 2")
        self.n = n
        self.iterations = iterations if iterations is not None else n - 1
        if not 0 <= self.iterations <= n - 1:
            raise ValueError("iterations must be in [0, n-1]")
        self.seed = seed

    def ops(self) -> float:
        """Matrix elements updated across all elimination steps."""
        n = self.n
        return float(sum((n - 1 - k) * (n - k) for k in range(self.iterations)))

    def allocate(self, rt) -> None:
        protocol = auto_protocol(self.n * 8, rt.cfg.dsm.page_size)
        self.shared(rt, "m", (self.n, self.n), "float64", protocol)

    def initial_matrix(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        m = rng.random((self.n, self.n))
        # diagonally dominant => no pivoting needed, numerically stable
        m[np.diag_indices(self.n)] += self.n
        return m

    def loops(self) -> List[ParallelFor]:
        return [ParallelFor("eliminate", self.n, self._eliminate_body)]

    def _eliminate_body(self, ctx, lo: int, hi: int, args) -> Generator:
        k = args
        m = self.arrays["m"]
        rlo = max(lo, k + 1)
        if rlo >= hi:
            return  # this block is entirely above the pivot: idle
        yield from ctx.access(m.seg, reads=m.row(k))
        yield from ctx.access(
            m.seg, reads=m.rows(rlo, hi), writes=m.rows(rlo, hi)
        )
        if ctx.materialized:
            a = m.view(ctx)
            factors = a[rlo:hi, k] / a[k, k]
            a[rlo:hi, k:] -= factors[:, None] * a[k, k:]
            a[rlo:hi, k] = factors  # keep the multipliers (LU style)
        yield from ctx.compute((hi - rlo) * (self.n - k) * self.RATE)

    def driver(self, omp) -> Generator:
        ctx = omp.ctx
        m = self.arrays["m"]
        yield from ctx.access(m.seg, writes=m.full())
        if ctx.materialized:
            m.view(ctx)[:] = self.initial_matrix()
        for k in range(self.iterations):
            yield from omp.parallel_for("eliminate", k)
        yield from self.collect(ctx, ["m"])

    def reference(self) -> dict:
        m = self.initial_matrix()
        for k in range(self.iterations):
            factors = m[k + 1 :, k] / m[k, k]
            m[k + 1 :, k:] -= factors[:, None] * m[k, k:]
            m[k + 1 :, k] = factors
        return {"m": m}


Gauss.RATE = table1_rate(Gauss)

"""3D-FFT — the NAS FT kernel shape (§5.2).

Paper configuration: 128 × 64 × 64 complex doubles, 100 iterations, 42 MB
shared.  The 3-D transform is a sequence of three 1-D transforms "with a
transposition of the matrix between the second and the third transform".

The transpose is the *blocked* redistribution real FT codes use: while a
process still owns its x-slab it locally reshuffles it into a staging
array laid out ``stage[x, z, y] = a[x, y, z]`` — so the bytes one
destination z-slab needs from one source x-slab are **contiguous**.  Each
process then gathers its contiguous tiles from every peer: the classic
all-to-all in which every page of the staging array crosses the network
exactly once per iteration.  (A naive strided transpose would fault every
page of ``a`` at every process — no page-based DSM can run that; the
published 1 985 pages/iteration confirm the blocked exchange.)

x-planes and staging rows are page aligned at the paper's sizes, so all
pages are single-writer and Table 1's zero diff count follows.
"""

from __future__ import annotations

from math import log2
from typing import Generator, List

import numpy as np

from ..openmp import ParallelFor
from .base import AppKernel, auto_protocol, table1_rate


class FFT3D(AppKernel):
    name = "fft3d"
    PARAMS = ("nx", "ny", "nz", "iterations")
    #: A transpose move costs this fraction of one butterfly level.
    TRANSPOSE_FRACTION = 0.10
    #: Seconds per point per log2-level (:func:`table1_rate`, set below).
    RATE: float
    #: Seconds per point moved by a transpose.
    TRANSPOSE_RATE: float

    def __init__(self, nx: int = 128, ny: int = 64, nz: int = 64,
                 iterations: int = 100, seed: int = 777):
        super().__init__()
        for d in (nx, ny, nz):
            if d < 2 or d & (d - 1):
                raise ValueError("FFT dims must be powers of two >= 2")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.iterations = iterations
        self.seed = seed

    def ops(self) -> float:
        """Butterfly levels over all points, transposes weighted at their
        fraction."""
        points = self.nx * self.ny * self.nz
        levels = log2(self.nx) + log2(self.ny) + log2(self.nz)
        per_iter = points * levels + points * self.TRANSPOSE_FRACTION
        return per_iter * self.iterations

    def allocate(self, rt) -> None:
        page = rt.cfg.dsm.page_size
        self.shared(
            rt, "a", (self.nx, self.ny, self.nz), "complex128",
            auto_protocol(self.ny * self.nz * 16, page),
        )
        # the blocked-transpose staging array: stage[x, z, y] == a[x, y, z]
        self.shared(
            rt, "stage", (self.nx, self.nz, self.ny), "complex128",
            auto_protocol(self.nz * self.ny * 16, page),
        )
        self.shared(
            rt, "b", (self.nz, self.ny, self.nx), "complex128",
            auto_protocol(self.ny * self.nx * 16, page),
        )

    def initial_a(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        shape = (self.nx, self.ny, self.nz)
        return (rng.random(shape) + 1j * rng.random(shape)).astype(np.complex128)

    #: The per-iteration evolution factor (NAS FT multiplies in frequency
    #: space; a fixed damping phase plus unitary ("ortho") FFTs keep
    #: values bounded over arbitrarily many iterations).
    EVOLVE = 0.5 + 0.5j

    def loops(self) -> List[ParallelFor]:
        return [
            ParallelFor("ffts12", self.nx, self._ffts12_body),
            ParallelFor("fft3", self.nz, self._fft3_body),
        ]

    def _ffts12_body(self, ctx, lo: int, hi: int, args) -> Generator:
        """Evolve + FFT along y,z on own x-planes, then reshuffle them
        into the staging layout (phase A of the blocked transpose)."""
        a, stage = self.arrays["a"], self.arrays["stage"]
        yield from ctx.access_batch([
            (a.seg, a.rows(lo, hi), a.rows(lo, hi)),
            (stage.seg, (), stage.rows(lo, hi)),
        ])
        if ctx.materialized:
            v = a.view(ctx)
            v[lo:hi] *= self.EVOLVE
            v[lo:hi] = np.fft.fft(
                np.fft.fft(v[lo:hi], axis=1, norm="ortho"), axis=2, norm="ortho"
            )
            stage.view(ctx)[lo:hi] = np.swapaxes(v[lo:hi], 1, 2)
        points = (hi - lo) * self.ny * self.nz
        levels = log2(self.ny) + log2(self.nz)
        yield from ctx.compute(
            points * levels * self.RATE
            + points * self.TRANSPOSE_RATE
        )

    def _fft3_body(self, ctx, lo: int, hi: int, args) -> Generator:
        """Gather own contiguous z-tiles from every x-plane of the staging
        array (the all-to-all), finish the transform along x."""
        stage, b = self.arrays["stage"], self.arrays["b"]
        itemsize = 16
        row = self.nz * self.ny * itemsize  # one x-plane of stage
        tile_lo = lo * self.ny * itemsize
        tile_hi = hi * self.ny * itemsize
        reads = [
            (x * row + tile_lo, x * row + tile_hi) for x in range(self.nx)
        ]
        yield from ctx.access(stage.seg, reads=reads)
        yield from ctx.access(b.seg, writes=b.rows(lo, hi))
        if ctx.materialized:
            src = stage.view(ctx)  # (nx, nz, ny)
            dst = b.view(ctx)  # (nz, ny, nx)
            dst[lo:hi] = np.transpose(src[:, lo:hi, :], (1, 2, 0))
            dst[lo:hi] = np.fft.fft(dst[lo:hi], axis=2, norm="ortho")
        points = (hi - lo) * self.ny * self.nx
        yield from ctx.compute(
            points * log2(self.nx) * self.RATE
            + points * self.TRANSPOSE_RATE
        )

    def driver(self, omp) -> Generator:
        ctx = omp.ctx
        a = self.arrays["a"]
        yield from ctx.access(a.seg, writes=a.full())
        if ctx.materialized:
            a.view(ctx)[:] = self.initial_a()
        for _ in range(self.iterations):
            yield from omp.parallel_for("ffts12")
            yield from omp.parallel_for("fft3")
        yield from self.collect(ctx, ["b"])

    def reference(self) -> dict:
        a = self.initial_a()
        b = np.zeros((self.nz, self.ny, self.nx), dtype=np.complex128)
        for _ in range(self.iterations):
            a *= self.EVOLVE
            a = np.fft.fft(np.fft.fft(a, axis=1, norm="ortho"), axis=2, norm="ortho")
            b = np.fft.fft(np.transpose(a, (2, 1, 0)), axis=2, norm="ortho")
        return {"b": b}


FFT3D.RATE = table1_rate(FFT3D)
FFT3D.TRANSPOSE_RATE = FFT3D.RATE * FFT3D.TRANSPOSE_FRACTION

"""NBF — non-bonded force kernel of a molecular dynamics code (§5.2).

Paper configuration: 131 072 atoms × 80 partners, 100 iterations, 52 MB
shared (the partner table alone is ~42 MB).  NBF is the *irregular*
kernel: the array indices (partner ids) are not linear expressions in the
loop variables, so reads scatter across the whole position array and the
pages fetched per iteration depend on the data, not the loop bounds.

Per iteration: a *forces* construct where each process reads the
positions of its atoms' partners (irregular gather) and writes its own
force block, then an *integrate* construct advancing its position block.
Position blocks are page aligned at the paper's sizes, so pages stay
single-writer and Table 1 reports zero diffs.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..dsm import Protocol
from ..openmp import ParallelFor
from .base import AppKernel


class NBF(AppKernel):
    name = "nbf"

    def __init__(
        self,
        natoms: int = 131072,
        npartners: int = 80,
        iterations: int = 100,
        interaction_rate: float = 2.29e-6,
        integrate_rate: float = 20.0e-9,
        cutoff_locality: float = 0.05,
        seed: int = 99,
    ):
        """``interaction_rate`` is seconds per pair interaction, calibrated
        so the 1-node run lands on Table 1's 2 398.79 s.

        ``cutoff_locality`` controls how far partner indices stray from
        their atom (fraction of the whole array): molecular neighbour lists
        are spatially local, which bounds how many remote pages a block's
        gather touches."""
        super().__init__()
        if natoms < 2 or npartners < 1:
            raise ValueError("NBF needs natoms >= 2 and npartners >= 1")
        self.natoms = natoms
        self.npartners = npartners
        self.iterations = iterations
        self.interaction_rate = interaction_rate
        self.integrate_rate = integrate_rate
        self.cutoff_locality = cutoff_locality
        self.seed = seed
        self._partners: np.ndarray | None = None
        #: (lo, hi) -> byte ranges of ``pos`` the block's gather reads.  The
        #: partner table never changes, so each block pays the sort once;
        #: an adaptation re-partitions and simply adds keys.  Tuples, so
        #: no access can alter what the next iteration reuses.
        self._gather_reads: dict[tuple[int, int], tuple] = {}

    # -- data ---------------------------------------------------------------
    def partner_table(self) -> np.ndarray:
        """The neighbour list: (natoms, npartners) int32, spatially local."""
        if self._partners is None:
            rng = np.random.default_rng(self.seed)
            window = max(1, int(self.natoms * self.cutoff_locality))
            offsets = rng.integers(-window, window + 1, size=(self.natoms, self.npartners))
            base = np.arange(self.natoms)[:, None]
            partners = (base + offsets) % self.natoms
            # an atom is not its own partner: shift self-references by one
            self_ref = partners == base
            partners[self_ref] = (partners[self_ref] + 1) % self.natoms
            self._partners = partners.astype(np.int32)
        return self._partners

    def initial_positions(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1)
        return rng.random(self.natoms)

    def allocate(self, rt) -> None:
        # positions/forces: 1-D float64 blocks; single-writer pages when
        # blocks are aligned, demoted automatically otherwise.
        self.shared(rt, "pos", (self.natoms,), "float64", Protocol.SINGLE_WRITER)
        self.shared(rt, "force", (self.natoms,), "float64", Protocol.SINGLE_WRITER)
        self.shared(
            rt, "partners", (self.natoms, self.npartners), "int32",
            Protocol.SINGLE_WRITER,
        )

    # -- physics -----------------------------------------------------------
    @staticmethod
    def pair_force(xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        """A smooth bounded pair interaction (softened inverse square)."""
        d = xi - xj
        return d / (1.0 + d * d)

    DT = 1.0e-3

    # -- parallel constructs ---------------------------------------------------
    def loops(self) -> List[ParallelFor]:
        return [
            ParallelFor("forces", self.natoms, self._forces_body),
            ParallelFor("integrate", self.natoms, self._integrate_body),
        ]

    def _forces_body(self, ctx, lo: int, hi: int, args) -> Generator:
        pos, force = self.arrays["pos"], self.arrays["force"]
        partners = self.arrays["partners"]
        table = self.partner_table()
        # the irregular gather: which position elements does this block read?
        gather = self._gather_reads.get((lo, hi))
        if gather is None:
            gather = self._gather_reads[lo, hi] = tuple(pos.element_set(table[lo:hi]))
        yield from ctx.access(partners.seg, reads=partners.rows(lo, hi))
        yield from ctx.access(pos.seg, reads=pos.elements(lo, hi))
        yield from ctx.access(pos.seg, reads=gather)
        yield from ctx.access(force.seg, writes=force.elements(lo, hi))
        if ctx.materialized:
            x = pos.view(ctx)
            f = force.view(ctx)
            block = table[lo:hi]
            f[lo:hi] = self.pair_force(x[lo:hi, None], x[block]).sum(axis=1)
        yield from ctx.compute(
            (hi - lo) * self.npartners * self.interaction_rate
        )

    def _integrate_body(self, ctx, lo: int, hi: int, args) -> Generator:
        pos, force = self.arrays["pos"], self.arrays["force"]
        yield from ctx.access(force.seg, reads=force.elements(lo, hi))
        yield from ctx.access(
            pos.seg, reads=pos.elements(lo, hi), writes=pos.elements(lo, hi)
        )
        if ctx.materialized:
            x = pos.view(ctx)
            f = force.view(ctx)
            x[lo:hi] += self.DT * f[lo:hi]
        yield from ctx.compute((hi - lo) * self.integrate_rate)

    # -- driver ---------------------------------------------------------------
    def driver(self, omp) -> Generator:
        ctx = omp.ctx
        pos, force = self.arrays["pos"], self.arrays["force"]
        partners = self.arrays["partners"]
        yield from ctx.access(pos.seg, writes=pos.full())
        yield from ctx.access(force.seg, writes=force.full())
        yield from ctx.access(partners.seg, writes=partners.full())
        if ctx.materialized:
            pos.view(ctx)[:] = self.initial_positions()
            force.view(ctx)[:] = 0.0
            partners.view(ctx)[:] = self.partner_table()
        for _ in range(self.iterations):
            yield from omp.parallel_for("forces")
            yield from omp.parallel_for("integrate")
        yield from self.collect(ctx, ["pos", "force"])

    # -- verification ------------------------------------------------------------
    def reference(self) -> dict:
        x = self.initial_positions()
        table = self.partner_table()
        f = np.zeros(self.natoms)
        for _ in range(self.iterations):
            f = self.pair_force(x[:, None], x[table]).sum(axis=1)
            x = x + self.DT * f
        return {"pos": x, "force": f}

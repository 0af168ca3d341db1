"""Ergonomic shared-array handles over DSM segments.

A :class:`SharedArray` wraps a :class:`~repro.dsm.memory.SharedSegment`
and converts array-level slices (rows, element ranges, arbitrary index
lists) into the byte ranges :meth:`DsmProcess.access` consumes.  The same
handle also exposes the materialized numpy view, so application kernels
read and write real data through the DSM.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import DsmError
from .memory import SharedSegment
from .ranges import Range, coalesce


class SharedArray:
    """A typed, shaped view of one shared segment."""

    def __init__(self, seg: SharedSegment):
        if not seg.shape:
            raise DsmError(f"segment {seg.name!r} has no array shape")
        self.seg = seg
        self.shape = seg.shape
        self.dtype = np.dtype(seg.dtype)
        self.itemsize = self.dtype.itemsize
        #: Bytes of one row (C-order leading dimension).
        self.row_bytes = int(np.prod(seg.shape[1:], dtype=np.int64)) * self.itemsize

    @property
    def name(self) -> str:
        return self.seg.name

    @property
    def nbytes(self) -> int:
        return self.seg.nbytes

    @property
    def nrows(self) -> int:
        return self.shape[0]

    # -- byte-range builders ------------------------------------------------
    def full(self) -> List[Range]:
        """The whole array."""
        return [(0, self.seg.nbytes)]

    def rows(self, r0: int, r1: int) -> List[Range]:
        """Rows ``[r0, r1)`` of a C-ordered array (contiguous)."""
        if not 0 <= r0 <= r1 <= self.nrows:
            raise DsmError(f"rows [{r0}, {r1}) out of bounds for {self.name!r}")
        return [(r0 * self.row_bytes, r1 * self.row_bytes)] if r1 > r0 else []

    def row(self, r: int) -> List[Range]:
        return self.rows(r, r + 1)

    def elements(self, i0: int, i1: int) -> List[Range]:
        """Flat elements ``[i0, i1)`` (1-D addressing)."""
        n = int(np.prod(self.shape, dtype=np.int64))
        if not 0 <= i0 <= i1 <= n:
            raise DsmError(f"elements [{i0}, {i1}) out of bounds for {self.name!r}")
        return [(i0 * self.itemsize, i1 * self.itemsize)] if i1 > i0 else []

    def element_set(self, indices: Iterable[int]) -> List[Range]:
        """Arbitrary flat element indices (irregular access, e.g. NBF).

        Vectorized: sort + dedupe the indices and coalesce consecutive
        runs in numpy, instead of materializing one per-element range and
        normalizing — NBF's partner lists hit this with thousands of
        indices per access.  An ndarray of any shape is taken as is.
        Output ranges are identical to
        ``normalize([(i*s, (i+1)*s) for i in indices])``.
        """
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, dtype=np.int64)
        s = self.itemsize
        return [(a * s, b * s) for a, b in coalesce(np.unique(indices))]

    def block(self, pid: int, nprocs: int) -> Tuple[int, int]:
        """The block row partition ``[lo, hi)`` of process ``pid``.

        This is the partitioning code the OpenMP compiler emits: it depends
        only on (pid, nprocs), so re-running it after an adaptation
        re-partitions the iteration (and data) space.
        """
        rows = self.nrows
        base, extra = divmod(rows, nprocs)
        lo = pid * base + min(pid, extra)
        hi = lo + base + (1 if pid < extra else 0)
        return lo, hi

    # -- materialized access --------------------------------------------------
    def view(self, ctx) -> np.ndarray:
        """The local materialized copy, shaped."""
        return ctx.array(self.seg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SharedArray {self.name} {self.shape} {self.dtype}>"

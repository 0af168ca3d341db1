"""Common machinery for the evaluation kernels (§5.2).

Each kernel is expressed as a real OpenMP program (declared parallel
loops + a sequential driver) and compiled through
:func:`repro.openmp.compile_openmp` — the same path a user program takes.
Kernels run in two modes sharing one code path:

* materialized — numpy data flows through the DSM; ``verify()`` compares
  the final shared memory against a sequential numpy reference;
* traced — identical access declarations and protocol traffic, no bytes.

Each kernel class is the one definition of its kernel: its problem-size
parameter names (``PARAMS``, whose constructor defaults are the paper's
Table 1 configuration), its operation count (``ops``) and its compute
rates.  The primary rate is :func:`table1_rate`: Table 1's 1-node time
over the op count at the paper size, so a 1-process run at the paper size
takes the published time and everything else — the 4- and 8-node rows,
traffic, adaptation costs — comes out of the simulation.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..bench.paper_data import TABLE1
from ..dsm import SharedArray, TmkProgram
from ..errors import ConfigurationError
from ..openmp import OmpProgram, ParallelFor, compile_openmp


class AppKernel:
    """Base class for the four evaluation kernels."""

    #: Subclasses set a stable name used in reports.
    name = "app"
    #: Problem-size parameter names: the constructor keywords a
    #: :class:`~repro.exec.spec.ScenarioSpec` may set.
    PARAMS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.arrays: Dict[str, SharedArray] = {}
        #: Final materialized copies captured by the driver's collect step.
        self.final: Dict[str, np.ndarray] = {}

    # -- subclass interface -------------------------------------------------
    def allocate(self, rt) -> None:
        """Create the kernel's shared segments on ``rt``."""
        raise NotImplementedError

    def loops(self) -> List[ParallelFor]:
        """The kernel's declared parallel constructs."""
        raise NotImplementedError

    def driver(self, omp) -> Generator:
        """The sequential (master) control flow."""
        raise NotImplementedError

    def reference(self) -> Dict[str, np.ndarray]:
        """Sequential numpy results to verify against (materialized mode)."""
        raise NotImplementedError

    def ops(self) -> float:
        """Operations charged at the primary rate over the whole run."""
        raise NotImplementedError

    @property
    def params(self) -> Dict[str, int]:
        """This instance's problem size, by :attr:`PARAMS` name."""
        return {name: getattr(self, name) for name in self.PARAMS}

    #: Approximate shared-memory footprint in bytes (for reports).
    def shared_bytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values())

    # -- common plumbing ------------------------------------------------------
    def shared(self, rt, name, shape, dtype, protocol) -> SharedArray:
        """Allocate and register one shared array."""
        seg = rt.malloc(name, shape=shape, dtype=dtype, protocol=protocol)
        arr = SharedArray(seg)
        self.arrays[name] = arr
        return arr

    def program(self, rt, adaptable: bool = True) -> TmkProgram:
        """Allocate segments and compile the kernel for ``rt``."""
        self.allocate(rt)
        omp_prog = OmpProgram(
            name=self.name,
            loops=self.loops(),
            driver=self.driver,
            adaptable=adaptable,
        )
        return compile_openmp(omp_prog)

    #: When False the driver's final collect step is skipped — benchmark
    #: runs measure the computation itself, not the verification gather
    #: (which would drag every page's diff history to the master).
    do_collect = True

    def collect(self, ctx, names: Optional[List[str]] = None) -> Generator:
        """Fault the named arrays into the master and snapshot them."""
        if not self.do_collect:
            return
        for name in names or list(self.arrays):
            arr = self.arrays[name]
            yield from ctx.access(arr.seg, reads=arr.full())
            if ctx.materialized:
                self.final[name] = arr.view(ctx).copy()

    def verify(self, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Compare collected finals against the sequential reference."""
        if not self.final:
            raise ConfigurationError(
                f"{self.name}: nothing collected (traced mode or missing collect step)"
            )
        for name, expected in self.reference().items():
            got = self.final[name]
            if not np.allclose(got, expected, rtol=rtol, atol=atol):
                return False
        return True


def table1_rate(kernel: type) -> float:
    """Seconds per op of ``kernel``: Table 1's 1-node time over the op
    count of the paper size, which is the constructor's defaults."""
    return TABLE1[(kernel.name, 1)].time_standard / kernel().ops()


def auto_protocol(row_bytes: int, page_size: int = 4096):
    """Single-writer when partitions are page-aligned, else multiple-writer.

    This mirrors the per-page protocol choice §4.1's page map describes:
    the paper's Gauss/FFT/NBF data lands page-aligned (zero diffs in
    Table 1) while Jacobi's 20 000-byte rows do not (diffs observed).
    """
    from ..dsm import Protocol

    if row_bytes % page_size == 0:
        return Protocol.SINGLE_WRITER
    return Protocol.MULTIPLE_WRITER

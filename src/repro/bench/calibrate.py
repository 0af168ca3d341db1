"""Compute-rate calibration against Table 1's 1-node column.

The simulator charges application CPU time through per-operation rates.
This module *derives* each kernel's rates from the paper's own 1-node
runtimes and the kernel's analytic operation count — then the multi-node
runtimes, traffic, and adaptation costs are predictions of the protocol +
network simulation, which is exactly what the reproduction needs to test.
The kernels' default rates are these values written out as literals
(``repro.apps`` cannot import this module: it imports ``repro.apps``), and
``tests/bench/test_bench.py`` holds the two equal to the bit.
"""

from __future__ import annotations

from math import log2
from typing import Dict

from ..apps import FFT3D, Gauss, Jacobi, NBF, AppKernel
from .paper_data import TABLE1

#: Fixed intra-kernel rate ratios (secondary knobs; the single primary
#: rate per kernel is what calibration solves for).
JACOBI_COPY_FRACTION = 0.25  # copy pass costs 1/4 of an update pass
FFT_TRANSPOSE_FRACTION = 0.10  # transpose move vs one butterfly level
NBF_INTEGRATE_FRACTION = 0.01  # integration vs one pair interaction


def jacobi_ops(n: int, iterations: int) -> float:
    """Grid-point updates charged at the update rate (incl. weighted copy)."""
    return n * n * iterations * (1.0 + JACOBI_COPY_FRACTION)


def gauss_ops(n: int, iterations: int) -> float:
    """Matrix elements updated across all elimination steps."""
    return float(sum((n - 1 - k) * (n - k) for k in range(iterations)))


def fft_ops(nx: int, ny: int, nz: int, iterations: int) -> float:
    """Butterfly-rate-weighted operation count per run."""
    points = nx * ny * nz
    levels = log2(nx) + log2(ny) + log2(nz)
    per_iter = points * levels + points * FFT_TRANSPOSE_FRACTION
    return per_iter * iterations


def nbf_ops(natoms: int, npartners: int, iterations: int) -> float:
    """Pair interactions (integration folded in at its fixed ratio)."""
    return natoms * iterations * (npartners + NBF_INTEGRATE_FRACTION)


def calibrated_rates() -> Dict[str, float]:
    """Primary per-op rate for each kernel, from Table 1's 1-node times."""
    return {
        "jacobi": TABLE1[("jacobi", 1)].time_standard / jacobi_ops(2500, 1000),
        "gauss": TABLE1[("gauss", 1)].time_standard / gauss_ops(3072, 3071),
        "fft3d": TABLE1[("fft3d", 1)].time_standard / fft_ops(128, 64, 64, 100),
        "nbf": TABLE1[("nbf", 1)].time_standard / nbf_ops(131072, 80, 100),
    }


#: Expected 1-node simulated runtime of a calibrated kernel (seconds).
def expected_1node_seconds(app: AppKernel) -> float:
    rates = calibrated_rates()
    if isinstance(app, Jacobi):
        return jacobi_ops(app.n, app.iterations) * rates["jacobi"]
    if isinstance(app, Gauss):
        return gauss_ops(app.n, app.iterations) * rates["gauss"]
    if isinstance(app, FFT3D):
        return fft_ops(app.nx, app.ny, app.nz, app.iterations) * rates["fft3d"]
    if isinstance(app, NBF):
        return nbf_ops(app.natoms, app.npartners, app.iterations) * rates["nbf"]
    raise TypeError(f"unknown kernel {type(app)}")

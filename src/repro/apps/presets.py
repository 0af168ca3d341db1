"""The kernel registry and the problem-size presets.

A preset maps each kernel name to the constructor keywords of one problem
size: ``KERNELS[name](**PRESETS[preset][name])`` builds it.  ``PAPER`` is
Table 1's configurations, the kernels' defaults (run these traced — the
materialized data paths at 48 MB × 1000 iterations are meant for real
hardware, not a unit test).  ``BENCH`` keeps the access-pattern *shape*
(unaligned Jacobi rows, page-aligned Gauss rows, power-of-two FFT planes,
irregular NBF gathers) at sizes the simulator sweeps in seconds.
``TINY`` is for materialized correctness tests.
"""

from __future__ import annotations

from typing import Dict

from .fft3d import FFT3D
from .gauss import Gauss
from .jacobi import Jacobi
from .nbf import NBF

#: Every kernel class by its name.
KERNELS = {kernel.name: kernel for kernel in (Gauss, Jacobi, FFT3D, NBF)}

APP_NAMES = tuple(KERNELS)

Preset = Dict[str, Dict[str, int]]

#: Table 1's exact configurations: each kernel's constructor defaults.
PAPER: Preset = {name: kernel().params for name, kernel in KERNELS.items()}

#: Scaled presets for the benchmark harness (shape-preserving).
BENCH: Preset = {
    "gauss": {"n": 512, "iterations": 511},
    "jacobi": {"n": 700, "iterations": 60},
    "fft3d": {"nx": 64, "ny": 64, "nz": 32, "iterations": 8},
    "nbf": {"natoms": 8192, "npartners": 16, "iterations": 25},
}

#: Tiny presets for materialized correctness tests.
TINY: Preset = {
    "gauss": {"n": 48, "iterations": 47},
    "jacobi": {"n": 32, "iterations": 8},
    "fft3d": {"nx": 8, "ny": 8, "nz": 8, "iterations": 3},
    "nbf": {"natoms": 256, "npartners": 8, "iterations": 5},
}

PRESETS: Dict[str, Preset] = {"paper": PAPER, "bench": BENCH, "tiny": TINY}

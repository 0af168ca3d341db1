"""The paper's evaluation kernels (§5.2): Jacobi, Gauss, 3D-FFT, NBF."""

from .base import AppKernel, auto_protocol
from .fft3d import FFT3D
from .gauss import Gauss
from .jacobi import Jacobi
from .nbf import NBF
from .presets import APP_NAMES, BENCH, KERNELS, PAPER, PRESETS, TINY

__all__ = [
    "APP_NAMES",
    "AppKernel",
    "BENCH",
    "FFT3D",
    "Gauss",
    "Jacobi",
    "KERNELS",
    "NBF",
    "PAPER",
    "PRESETS",
    "TINY",
    "auto_protocol",
]

"""Transparent Adaptive Parallelism on NOWs using OpenMP — reproduction.

A full reproduction of Scherer, Lu, Gross & Zwaenepoel (PPoPP 1999): an
adaptive TreadMarks-style DSM running OpenMP programs on a simulated
network of workstations whose nodes join and leave transparently.

Quick tour::

    from repro import (
        Simulator, SystemConfig, Switch, NodePool, AdaptiveRuntime,
        OmpProgram, ParallelFor, compile_openmp, SharedArray,
    )

    sim = Simulator()
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = AdaptiveRuntime(sim, cfg, pool.add_nodes(4), pool)
    ...

See README.md for the architecture and DESIGN.md / EXPERIMENTS.md for the
paper mapping.  ``python -m repro --help`` drives the experiment CLI.
"""

from .cluster import NodePool
from .config import PAPER_CONFIG, SystemConfig
from .core import AdaptiveRuntime
from .dsm import Protocol, ScRuntime, SharedArray, TmkProgram, TmkRuntime
from .errors import ReproError
from .network import Switch
from .openmp import OmpProgram, ParallelFor, compile_openmp, strip_mine
from .simcore import Simulator

__version__ = "2.0.0"


def __getattr__(name):
    # Lazy: repro.api pulls in the exec engine + obs layer; load it only
    # when asked for so `import repro` stays light.
    # (``from . import api`` would re-enter this hook through the import
    # system's fromlist handling and recurse.)
    if name == "api":
        import importlib

        return importlib.import_module(".api", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveRuntime",
    "api",
    "NodePool",
    "OmpProgram",
    "PAPER_CONFIG",
    "ParallelFor",
    "Protocol",
    "ReproError",
    "ScRuntime",
    "SharedArray",
    "Simulator",
    "Switch",
    "SystemConfig",
    "TmkProgram",
    "TmkRuntime",
    "compile_openmp",
    "strip_mine",
    "__version__",
]

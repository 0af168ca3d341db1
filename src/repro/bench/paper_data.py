"""The paper's published numbers, machine-readable.

Sources: Table 1 (runtimes & traffic, no adapt events, shared-memory
footprints), Table 2 (average adaptation cost), §5.1 (micro-benchmarks),
§5.3 (migration costs), Figure 3 (data-movement fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Table1Row:
    """One (application, node-count) row of Table 1."""

    app: str
    nodes: int
    time_standard: float
    time_adaptive: float
    pages: int
    megabytes: float
    messages: int
    diffs: int


TABLE1: Dict[Tuple[str, int], Table1Row] = {
    (row.app, row.nodes): row
    for row in [
        Table1Row("gauss", 8, 243.46, 242.14, 80_577, 320.54, 236_453, 0),
        Table1Row("gauss", 4, 398.07, 397.23, 41_463, 164.62, 129_021, 0),
        Table1Row("gauss", 1, 1_404.20, 1_408.95, 0, 0.0, 0, 0),
        Table1Row("jacobi", 8, 215.06, 216.17, 58_041, 254.50, 221_631, 27_993),
        Table1Row("jacobi", 4, 361.38, 362.88, 30_741, 131.17, 115_840, 11_994),
        Table1Row("jacobi", 1, 1_283.63, 1_287.02, 0, 0.0, 0, 0),
        Table1Row("fft3d", 8, 83.50, 81.95, 198_471, 779.23, 416_570, 0),
        Table1Row("fft3d", 4, 138.20, 133.51, 170_115, 667.16, 354_018, 0),
        Table1Row("fft3d", 1, 289.90, 285.94, 0, 0.0, 0, 0),
        Table1Row("nbf", 8, 535.89, 534.74, 353_056, 1_388.27, 1_182_292, 0),
        Table1Row("nbf", 4, 714.78, 715.36, 183_600, 721.85, 618_443, 0),
        Table1Row("nbf", 1, 2_398.79, 2_299.20, 0, 0.0, 0, 0),
    ]
}


#: Table 1's shared-memory footprint per application (MB).
SHARED_MB: Dict[str, float] = {
    "gauss": 48.0,
    "jacobi": 47.8,
    "fft3d": 42.0,
    "nbf": 52.0,
}


@dataclass(frozen=True)
class Table2Cell:
    """Average seconds per adaptation (Table 2)."""

    app: str
    leaver: str  # "end" | "middle"
    nprocs: int  # adaptations between n and n-1
    seconds: float


TABLE2: Dict[Tuple[str, str, int], Table2Cell] = {
    (c.app, c.leaver, c.nprocs): c
    for c in [
        Table2Cell("gauss", "end", 8, 4.19),
        Table2Cell("gauss", "end", 6, 4.60),
        Table2Cell("gauss", "middle", 8, 5.13),
        Table2Cell("gauss", "middle", 6, 5.38),
        Table2Cell("jacobi", "end", 8, 2.77),
        Table2Cell("jacobi", "end", 6, 3.78),
        Table2Cell("jacobi", "middle", 8, 6.25),
        Table2Cell("jacobi", "middle", 6, 8.75),
        Table2Cell("fft3d", "end", 8, 1.87),
        Table2Cell("fft3d", "end", 6, 2.50),
        Table2Cell("fft3d", "middle", 8, 4.17),
        Table2Cell("fft3d", "middle", 6, 5.07),
        Table2Cell("nbf", "end", 8, 1.01),
        Table2Cell("nbf", "end", 6, 2.81),
        Table2Cell("nbf", "middle", 8, 1.79),
        Table2Cell("nbf", "middle", 6, 3.96),
    ]
}


@dataclass(frozen=True)
class MicroBenchmarks:
    """§5.1 testbed measurements (seconds)."""

    rtt_1byte: float = 126e-6
    lock_min: float = 178e-6
    lock_max: float = 272e-6
    diff_min: float = 313e-6
    diff_max: float = 1_544e-6
    page_transfer: float = 1_308e-6
    spawn_min: float = 0.6
    spawn_max: float = 0.8
    migration_rate: float = 8.1e6


MICRO = MicroBenchmarks()

#: §5.3 direct migration cost per application (seconds).
MIGRATION_COST: Dict[str, float] = {
    "jacobi": 6.70,
    "fft3d": 6.13,
    "gauss": 6.90,
    "nbf": 7.66,
}

#: Figure 3 data-movement fractions ("up to"), 8 -> 7 processes.
FIGURE3_MOVED = {
    "end": 0.50,  # leaving pid 7
    "middle": 0.30,  # leaving pid 3 (exact analytic value: 2/7)
}

#: §5.3: average time between successive adaptation points (seconds).
ADAPTATION_POINT_SPACING = {
    "gauss": (0.1, 0.2),
    "jacobi": (0.1, 0.2),
    "fft3d": (0.1, 0.2),
    "nbf": (2.0, 3.0),  # "about 2.5 seconds"
}


def speedup(app: str, nodes: int) -> float:
    """Published speedup of the standard system over 1 node."""
    return TABLE1[(app, 1)].time_standard / TABLE1[(app, nodes)].time_standard

"""Shared fixtures and report plumbing for the paper-reproduction benches.

Every bench regenerates one table or figure of the paper at harness scale
(shape-preserving scaled workloads; see DESIGN.md §4) and writes its
rendered report under ``benchmarks/results/``.  Run with::

    REPRO_BENCH_NO_CACHE=1 pytest benchmarks --ignore=benchmarks/spine

Shape assertions live in the tests; the absolute numbers land in the
report files and in EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    """Persist a rendered table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


@pytest.fixture(scope="session")
def report():
    return save_report


@pytest.fixture(scope="session")
def table1_grid():
    """One run of every kernel at 1/4/8 procs (traced), keyed
    ``(app, nprocs)``.

    Every scenario runs on the adaptive runtime, which with no adapt event
    is the standard system bit for bit, so one cell is both of Table 1's
    columns.  Session-scoped: Table 1 and the speedup checks all read
    from this grid, so the expensive sweep runs once.

    The grid runs through :func:`repro.api.sweep`: set
    ``REPRO_BENCH_JOBS`` to shard the 12 cells across worker processes
    (the merged results are bitwise-identical to serial execution), and
    ``REPRO_BENCH_NO_CACHE=1`` to bypass the content-addressed result
    cache under ``benchmarks/results/cache/``.
    """
    import os

    from repro.api import spec_from_preset, sweep
    from repro.apps import APP_NAMES
    from repro.exec import ResultCache

    cells = [(app_name, nprocs) for app_name in APP_NAMES for nprocs in (1, 4, 8)]
    specs = [
        spec_from_preset("bench", app_name, nprocs, label=f"{app_name}-{nprocs}")
        for app_name, nprocs in cells
    ]
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = (
        None if os.environ.get("REPRO_BENCH_NO_CACHE")
        else ResultCache(root=pathlib.Path(__file__).parent / "results" / "cache")
    )
    outcome = sweep(specs, jobs=jobs, cache=cache)
    return dict(zip(cells, outcome.results))


"""The advertised top-level API exists and is coherent."""

import os
import subprocess
import sys

import repro


def test_version():
    assert repro.__version__ == "2.0.0"


def test_lazy_api_loads_in_a_fresh_interpreter():
    """``from repro import api`` used to recurse through the PEP 562 hook
    unless ``repro.api`` had been imported first; only a fresh interpreter
    (nothing pre-imported by other tests) can tell."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "from repro import api; print(api.run.__name__)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "run"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_top_level_quickstart_works():
    """The docstring's tour, executed."""
    sim = repro.Simulator()
    cfg = repro.SystemConfig()
    pool = repro.NodePool(sim, repro.Switch(sim, cfg.network))
    rt = repro.AdaptiveRuntime(sim, cfg, pool.add_nodes(2), pool)
    vec = repro.SharedArray(rt.malloc("v", shape=(64,), dtype="float64"))

    def body(ctx, lo, hi, args):
        yield from ctx.access(vec.seg, writes=vec.elements(lo, hi))
        vec.view(ctx)[lo:hi] = 1.0

    def driver(omp):
        yield from omp.parallel_for("init")

    prog = repro.compile_openmp(
        repro.OmpProgram("t", [repro.ParallelFor("init", 64, body)], driver)
    )
    res = rt.run(prog)
    assert res.forks == 1

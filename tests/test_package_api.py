"""The advertised top-level API exists and is coherent."""

import os
import subprocess
import sys

import pytest

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


def test_api_import_leaves_the_sweep_service_unloaded():
    """``import repro.api`` loads the spec, result, cache and pool half of
    ``repro.exec`` only; the service, wire, worker and chaos modules and
    ``socket`` load on first use of a name they define."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import sys",
        "import repro.api",
        "print(sorted(m for m in sys.modules if m.startswith('repro.exec')))",
        "print('socket' in sys.modules)",
        "from repro.exec import Coordinator",
        "print(Coordinator.__module__, 'socket' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['repro.exec', 'repro.exec.cache', 'repro.exec.pool', "
        "'repro.exec.result', 'repro.exec.spec', 'repro.exec.supervisor']",
        "False",
        "repro.exec.service True",
    ]


def test_import_graph_keeps_the_bench_harness_unloaded():
    """The kernels read Table 1 from ``repro.bench.paper_data`` and load
    no other ``repro.bench`` module; ``repro.api`` loads none at all
    (``repro.bench`` resolves its names lazily)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def bench_modules(statement):
        code = "\n".join([
            "import sys",
            statement,
            "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))",
        ])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    assert bench_modules("import repro.apps") == (
        "['repro.bench', 'repro.bench.paper_data']")
    assert bench_modules("import repro.api") == "[]"


def test_bench_exports_resolve():
    import repro.bench

    for name in repro.bench.__all__:
        assert getattr(repro.bench, name) is not None, name
    with pytest.raises(AttributeError):
        repro.bench.no_such_name


def test_exec_exports_resolve():
    import repro.exec

    for name in repro.exec.__all__:
        assert getattr(repro.exec, name) is not None, name
    with pytest.raises(AttributeError):
        repro.exec.no_such_name


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

"""Ablation — why lazy release consistency (the paper's DSM choice).

The paper's substrate decision (§2, §7: "The use of TreadMarks allows
automatic distribution and communication of data") rests on LRC beating
the classic Li–Hudak write-invalidate SVM ([15]).  This bench runs the
evaluation kernels under both protocols and measures the difference:

* false-sharing kernels (Jacobi's unaligned rows) ping-pong pages under
  write-invalidate; LRC's twins/diffs move only the changed bytes;
* every kernel pays SC's synchronous invalidation latency on each
  ownership change; LRC defers all coherence to synchronization points.
"""

import functools

import pytest

from repro.apps import APP_NAMES, BENCH, KERNELS
from repro.bench import format_table
from repro.bench.harness import run_experiment
from repro.dsm import ScRuntime, TmkRuntime


def sc_experiment(factory, nprocs):
    """run_experiment with the SC runtime swapped in."""
    from repro.cluster import NodePool
    from repro.config import SystemConfig
    from repro.network import Switch
    from repro.simcore import Simulator

    sim = Simulator()
    cfg = SystemConfig()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = ScRuntime(sim, cfg, pool.add_nodes(nprocs), materialized=False)
    app = factory()
    app.do_collect = False
    result = rt.run(app.program(rt))
    return result


@pytest.fixture(scope="module")
def protocol_grid():
    grid = {}
    for app_name in APP_NAMES:
        factory = functools.partial(KERNELS[app_name], **BENCH[app_name])
        lrc = run_experiment(factory, nprocs=8)
        sc = sc_experiment(factory, nprocs=8)
        grid[app_name] = (lrc, sc)
    return grid


def test_protocol_report(protocol_grid, report):
    rows = []
    for app_name, (lrc, sc) in protocol_grid.items():
        rows.append([
            app_name,
            lrc.runtime_seconds, sc.runtime_seconds,
            lrc.megabytes, sc.traffic.megabytes,
            lrc.messages, sc.traffic.messages,
            f"x{sc.runtime_seconds / lrc.runtime_seconds:.2f}",
        ])
    report(
        "sc_baseline",
        format_table(
            ["app", "LRC t(s)", "SC t(s)", "LRC MB", "SC MB",
             "LRC msgs", "SC msgs", "SC/LRC time"],
            rows,
            title="Ablation: TreadMarks LRC vs Li-Hudak write-invalidate (8 procs)",
        ),
    )


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_lrc_never_slower(protocol_grid, app_name):
    lrc, sc = protocol_grid[app_name]
    assert lrc.runtime_seconds <= sc.runtime_seconds * 1.02, (
        f"{app_name}: LRC {lrc.runtime_seconds:.2f}s vs SC "
        f"{sc.runtime_seconds:.2f}s"
    )


def test_false_sharing_kernel_suffers_most(protocol_grid):
    """Jacobi (unaligned rows) is the poster child for LRC."""
    ratios = {
        app: sc.runtime_seconds / lrc.runtime_seconds
        for app, (lrc, sc) in protocol_grid.items()
    }
    assert ratios["jacobi"] == max(ratios.values())
    assert ratios["jacobi"] > 1.3


def test_sc_moves_more_bytes_under_false_sharing(protocol_grid):
    lrc, sc = protocol_grid["jacobi"]
    assert sc.traffic.bytes > lrc.traffic.bytes

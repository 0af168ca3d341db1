"""Table 1 — execution times and network traffic, standard vs adaptive,
with no adapt events.

Published claims reproduced here (at shape-preserving scaled workloads):

1. the adaptive system's runtime equals the standard system's (zero
   overhead for supporting adaptivity);
2. network traffic (pages / MB / messages / diffs) is *identical*;
3. both systems speed up from 1 to 4 to 8 nodes;
4. diffs are non-zero only for Jacobi (unaligned rows), zero for
   Gauss / 3D-FFT / NBF (page-aligned single-writer data).
"""

import pytest

from repro.bench import TABLE1, format_table, speedup
from repro.apps import APP_NAMES


def _rows(table1_grid):
    rows = []
    for app in APP_NAMES:
        for nprocs in (8, 4, 1):
            std = table1_grid[(app, nprocs, False)]
            adp = table1_grid[(app, nprocs, True)]
            rows.append(
                [
                    app,
                    nprocs,
                    std.runtime_seconds,
                    adp.runtime_seconds,
                    std.pages,
                    std.megabytes,
                    std.messages,
                    std.diffs,
                ]
            )
    return rows


def test_table1_report(table1_grid, report):
    headers = ["app", "nodes", "t_std(s)", "t_adpt(s)", "pages", "MB", "messages", "diffs"]
    rows = _rows(table1_grid)
    report(
        "table1",
        format_table(
            headers,
            rows,
            title="Table 1 (scaled workloads): runtimes and traffic, no adapt events",
        ),
    )
    assert len(rows) == 12


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("nprocs", [1, 4, 8])
def test_adaptive_overhead_is_nil(table1_grid, app, nprocs):
    """Headline Table 1 claim: identical traffic, same runtime."""
    std = table1_grid[(app, nprocs, False)]
    adp = table1_grid[(app, nprocs, True)]
    assert adp.traffic.messages == std.traffic.messages
    assert adp.traffic.bytes == std.traffic.bytes
    assert adp.traffic.pages == std.traffic.pages
    assert adp.traffic.diffs == std.traffic.diffs
    assert adp.runtime_seconds == pytest.approx(std.runtime_seconds, rel=1e-9)
    assert adp.adaptations == 0


@pytest.mark.parametrize("app", APP_NAMES)
def test_speedup_shape(table1_grid, app):
    """More nodes => faster, and 1-node runs produce zero network traffic,
    exactly as Table 1's 1-node rows report."""
    t1 = table1_grid[(app, 1, False)].runtime_seconds
    t4 = table1_grid[(app, 4, False)].runtime_seconds
    t8 = table1_grid[(app, 8, False)].runtime_seconds
    assert t1 > t4 > t8
    one = table1_grid[(app, 1, False)]
    assert one.traffic.messages == 0
    assert one.traffic.pages == 0
    # every kernel keeps gaining from 4 to 8 nodes, as in Table 1; the
    # absolute speedup is smaller at harness scale because per-page fixed
    # costs do not shrink with the problem (documented in EXPERIMENTS.md)
    s4, s8 = t1 / t4, t1 / t8
    assert s8 > s4 >= 1.0
    paper_s8 = speedup(app, 8)
    assert 1.2 <= s8 <= 8.0, (
        f"{app}: simulated 8-node speedup {s8:.2f} vs paper {paper_s8:.2f}"
    )


@pytest.mark.parametrize("app", APP_NAMES)
def test_diff_signature_matches_paper(table1_grid, app):
    """Diffs only where the paper reports them (Jacobi)."""
    res = table1_grid[(app, 8, False)]
    paper_diffs = TABLE1[(app, 8)].diffs
    if paper_diffs == 0:
        assert res.diffs == 0
    else:
        assert res.diffs > 0


def test_traffic_ordering_matches_paper(table1_grid):
    """Per-iteration traffic intensity ordering: FFT's transpose makes it
    the most communication-heavy kernel per unit of computation, as in
    Table 1 (779 MB for its shortest runtime)."""
    intensity = {
        app: table1_grid[(app, 8, False)].megabytes
        / table1_grid[(app, 8, False)].runtime_seconds
        for app in APP_NAMES
    }
    assert intensity["fft3d"] == max(intensity.values())


@pytest.mark.parametrize("app", APP_NAMES)
def test_more_nodes_more_traffic(table1_grid, app):
    """Table 1: traffic grows with the node count for every kernel."""
    mb4 = table1_grid[(app, 4, False)].megabytes
    mb8 = table1_grid[(app, 8, False)].megabytes
    assert mb8 > mb4 > 0

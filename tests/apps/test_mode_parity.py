"""Traced mode must generate the same protocol traffic as materialized.

The benches run traced (no payload bytes); their validity rests on the
two modes producing identical message streams.  The only permitted
difference: materialized diffs can be *smaller* (writing identical bytes
produces no run), never larger.
"""

import pytest

from repro.apps import KERNELS, TINY

from ..helpers import build_system


def traffic(name, materialized, nprocs=4):
    sim, rt, pool = build_system(nprocs=nprocs, materialized=materialized)
    app = KERNELS[name](**TINY[name])
    app.do_collect = False  # identical drivers in both modes
    res = rt.run(app.program(rt))
    return res


@pytest.mark.parametrize("name", sorted(TINY))
def test_message_and_page_counts_identical(name):
    mat = traffic(name, True)
    tra = traffic(name, False)
    assert tra.traffic.messages == mat.traffic.messages
    assert tra.traffic.pages == mat.traffic.pages


@pytest.mark.parametrize("name", sorted(TINY))
def test_diff_counts_bounded_by_traced(name):
    mat = traffic(name, True)
    tra = traffic(name, False)
    assert mat.traffic.diffs <= tra.traffic.diffs


@pytest.mark.parametrize("name", sorted(TINY))
def test_runtime_close_between_modes(name):
    """Diff sizing differs between the modes (traced diffs cover the
    declared ranges contiguously; materialized diffs carry only changed
    bytes but fragment into per-run headers), which shifts diff service
    time — the runs must still agree within a modest band."""
    mat = traffic(name, True)
    tra = traffic(name, False)
    assert tra.runtime_seconds == pytest.approx(mat.runtime_seconds, rel=0.25)

"""The event loop makes no reference cycles.

``Simulator.run`` pauses the cyclic collector while it runs
(``docs/PROTOCOL.md`` §10).  That is only free if nothing the loop throws
away needs the collector, so this guard runs every golden scenario kind on
the flat and the tree+fattree model, obs off and on, plus a lossy wire
(``ReplyWait`` retransmit timers), a leaver let go of mid-run and
the SC baseline, with
``Simulator.run`` wrapped: one ``gc.collect()`` just before the loop and
one just after it, while the run is still referenced.  Every collection
in between must find nothing.
"""

import gc

import pytest

from repro.api import AdaptEvent, ScenarioSpec
from repro.apps import TINY
from repro.config import NetworkParams, SystemConfig
from repro.dsm import ScRuntime
from repro.exec.pool import execute_spec
from repro.simcore import Simulator

from ..golden import SCENARIOS, run_row
from ..helpers import build_system, collected_so_far

GUARDED_ROWS = [
    f"{scenario}/{model}/{obs}"
    for scenario in SCENARIOS
    for model in ("flat", "tree+fattree")
    for obs in ("obs-off", "obs-on")
]


def loop_garbage(monkeypatch, scenario, warm_up=None):
    """Run ``warm_up()`` (default: ``scenario()``) once as it is — one-time
    lazy initialisation (the first run in an interpreter leaves ~300
    ``ast`` / ``inspect`` objects) is not the loop's — then ``scenario()``
    with ``Simulator.run`` wrapped.  Returns its result and, per ``run``
    call, the objects found unreachable from just before the loop to just
    after it."""
    (warm_up or scenario)()
    found = []
    run = Simulator.run

    def guarded(self, *args, **kwargs):
        gc.collect()
        before = collected_so_far()
        try:
            return run(self, *args, **kwargs)
        finally:
            gc.collect()
            found.append(collected_so_far() - before)

    monkeypatch.setattr(Simulator, "run", guarded)
    return scenario(), found


@pytest.mark.parametrize("row_id", GUARDED_ROWS)
def test_golden_row_loop_leaves_no_cyclic_garbage(row_id, monkeypatch):
    # The warm-up is the golden matrix's own cached run of the row.
    _, found = loop_garbage(monkeypatch, lambda: run_row.__wrapped__(row_id),
                            warm_up=lambda: run_row(row_id))
    assert found and set(found) == {0}


def _tiny(kernel, cfg=None, **kwargs):
    def scenario():
        sim, rt, _ = build_system(nprocs=4, cfg=cfg, **kwargs)
        app = TINY[kernel].make()
        result = rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9)
        return result

    return scenario


@pytest.mark.parametrize("kernel", sorted(TINY))
def test_lossy_wire_loop_leaves_no_cyclic_garbage(kernel, monkeypatch):
    lossy = SystemConfig(network=NetworkParams(loss_rate=0.05))
    result, found = loop_garbage(monkeypatch, _tiny(kernel, lossy))
    assert result.network.retransmissions > 0
    assert found == [0]


def test_retired_leaver_leaves_no_cyclic_garbage(monkeypatch):
    """A leaver's engine is dropped with it.  In the golden ``adapt`` row
    the leaver stays referenced to the end; here a later join's start
    lets go of it inside the loop."""
    spec = ScenarioSpec(
        kernel="jacobi", params={"n": 96, "iterations": 12}, nprocs=8,
        adaptive=True, extra_nodes=2, seed=7,
        events=(AdaptEvent("leave", 0.012, 3), AdaptEvent("leave", 0.020, 5, 0.0),
                AdaptEvent("join", 0.022, 8)))

    def scenario():
        exp, _ = execute_spec(spec)
        assert [r.joins for r in exp.adapt_records] == [[], [8]]
        return exp

    _, found = loop_garbage(monkeypatch, scenario)
    assert found == [0]


@pytest.mark.parametrize("kernel", sorted(TINY))
def test_sc_baseline_loop_leaves_no_cyclic_garbage(kernel, monkeypatch):
    _, found = loop_garbage(monkeypatch, _tiny(kernel, runtime_cls=ScRuntime))
    assert found == [0]

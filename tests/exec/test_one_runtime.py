"""Every scenario runs on the adaptive runtime, and that costs nothing.

The paper's first result (§5) is that the adaptive system adds no
overhead when no adapt event occurs.  Here that is a differential: a
golden spec with no event, plan or checkpoint run through
:func:`~repro.exec.pool.execute_spec` (always an
:class:`~repro.core.AdaptiveRuntime`) and the same kernel on the bare
:class:`~repro.dsm.TmkRuntime` give the same result, event count and
memory, bit for bit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ScenarioSpec, run
from repro.dsm import TmkRuntime
from repro.exec.pool import execute_spec
from repro.exec.result import ScenarioResult
from repro.exec.spec import VERIFY_ATOL, VERIFY_RTOL
from tests.golden import MODELS, SCENARIOS
from tests.helpers import build_system

#: Golden spec scenarios that neither adapt, fault nor checkpoint.
QUIET = [
    name for name, scenario in SCENARIOS.items()
    if scenario.spec is not None and not scenario.spec.events
    and scenario.spec.fault_plan is None
    and scenario.spec.checkpoint_interval is None
]


def _memory(app) -> str:
    digest = hashlib.sha256()
    for name in sorted(app.final):
        digest.update(app.final[name].tobytes())
    return digest.hexdigest()


def _standard_system(spec):
    """Run ``spec``'s kernel on the bare TreadMarks runtime; returns its
    result as a ScenarioResult and the kernel."""
    sim, rt, _ = build_system(nprocs=spec.nprocs, extra_nodes=spec.extra_nodes,
                              cfg=spec.build_config(),
                              materialized=spec.materialized)
    assert type(rt) is TmkRuntime
    app = spec.build_app()
    app.do_collect = spec.materialized
    res = rt.run(app.program(rt))
    traffic = res.traffic
    verified = (app.verify(rtol=VERIFY_RTOL, atol=VERIFY_ATOL)
                if app.final else None)
    return ScenarioResult(
        app_name=app.name, nprocs=spec.nprocs, adaptive=False,
        runtime_seconds=res.runtime_seconds, events=sim.events_executed,
        forks=res.forks, adaptations=res.adaptations,
        messages=traffic.messages, bytes=traffic.bytes, pages=traffic.pages,
        diffs=traffic.diffs, dropped=traffic.dropped,
        retransmissions=traffic.retransmissions, verified=verified,
    ), app


@pytest.mark.parametrize("model", ["flat", "tree+fattree"])
@pytest.mark.parametrize("name", QUIET)
def test_no_adapt_event_is_the_standard_system_bit_for_bit(name, model):
    spec = SCENARIOS[name].spec.replaced(perf=MODELS[model])
    exp, _ = execute_spec(spec)
    adaptive = ScenarioResult.from_experiment(
        exp, events=exp.runtime.sim.events_executed)
    standard, app = _standard_system(spec)
    assert adaptive.to_json() == standard.to_json()
    if spec.materialized:
        assert _memory(exp.app) == _memory(app)


def test_failure_detection_alone_runs_the_detector():
    """No event, plan or checkpoint: the detector still probes.  (The tiny
    preset's 8 iterations end at 37 ms, before the first 50 ms heartbeat
    round, so this run does 40.)"""
    spec = ScenarioSpec(kernel="jacobi", params={"n": 32, "iterations": 40},
                        failure_detection=True, extra_nodes=1)
    report = run(spec)
    assert report.experiment.runtime.detector is not None
    assert report.result.heartbeats_sent > 0
    assert report.result.heartbeat_misses == 0
    assert report.result.recoveries == []

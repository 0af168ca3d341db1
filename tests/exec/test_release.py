"""A finished run lets go of its cluster.

A TreadMarks process holds its page copies and diffs only while it runs.
:func:`~repro.bench.harness.run_experiment` (the way every spec runs,
:func:`repro.api.run` included) ends each engine's page store and every
interval record's diff payload with the run.  Here that is checked on
the golden materialized rows: nothing reachable from the finished
experiment holds a store or a diff payload, and everything a result,
digest or later test reads — the result and memory digests, the log's
records, the plan cache, the checkpoints — is what it was before the
release.
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from repro.api import run
from repro.bench.harness import run_experiment
from repro.core import restore_checkpoint
from repro.dsm import TmkRuntime
from repro.dsm.intervals import IntervalRecord
from repro.dsm.memory import LocalStore
from repro.dsm.process import DsmProcess
from repro.errors import DsmError
from repro.exec.result import ScenarioResult
from repro.exec.spec import VERIFY_ATOL, VERIFY_RTOL
from tests.golden import MODELS, SCENARIOS, pinned, result_digest, run_scenario

ROWS = ("jacobi-mat", "gauss-mat", "crash-warm-mat")


def _reachable(root):
    """Every object reachable from ``root`` other than through a module
    or a class (a function's globals are its module's dict)."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen = {id(root)}
    stack, out = [root], []
    while stack:
        obj = stack.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if (id(ref) in seen or id(ref) in module_dicts
                    or isinstance(ref, (type, types.ModuleType))):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return out


def _assert_released(root):
    """No engine reachable from ``root`` holds a store and no interval
    record a diff payload; returns the engines."""
    objs = _reachable(root)
    assert not [o for o in objs if isinstance(o, LocalStore)]
    engines = [o for o in objs if isinstance(o, DsmProcess)]
    assert engines
    for proc in engines:
        assert proc.store is None and proc.lrc.store is None, proc
    assert not [o for o in objs if isinstance(o, IntervalRecord) and o.diffs]
    return engines


def _plan_cache_state(runtime):
    cache = runtime.space.plan_cache
    return cache, cache.epoch, cache.hits, cache.misses


@pytest.mark.parametrize("name", ROWS)
def test_a_finished_run_holds_no_store_or_diff(name, monkeypatch):
    before = {}
    release = TmkRuntime.release

    def snapshot_then_release(runtime):
        before["log"] = {pid: len(p.lrc.log) for pid, p in runtime.procs.items()}
        before["plans"] = _plan_cache_state(runtime)
        before["checkpoints"] = [
            (ck, {seg: data.copy() for seg, data in ck.segment_data.items()})
            for ck in runtime.ckpt_mgr.checkpoints
        ]
        release(runtime)

    monkeypatch.setattr(TmkRuntime, "release", snapshot_then_release)
    row = run_scenario(name, MODELS["flat"])
    # The result (``verified`` included) and the app's final arrays digest
    # to the pinned values, computed after the release.
    want = pinned()[f"{name}/flat/obs-off"]
    assert row.digests == want
    exp = row.experiment
    assert exp.app.final and exp.app.verify(rtol=VERIFY_RTOL, atol=VERIFY_ATOL)

    _assert_released(exp)
    runtime = exp.runtime
    assert {pid: len(p.lrc.log) for pid, p in runtime.procs.items()} == before["log"]
    assert _plan_cache_state(runtime) == before["plans"]
    checkpoints = runtime.ckpt_mgr.checkpoints
    assert [ck for ck, _ in before["checkpoints"]] == checkpoints
    for ck, data in before["checkpoints"]:
        assert ck.segment_data.keys() == data.keys()
        for seg, saved in data.items():
            assert (ck.segment_data[seg] == saved).all()


def test_api_run_releases_the_run():
    report = run(SCENARIOS["jacobi-mat"].spec)
    assert result_digest(report.result) == pinned()["jacobi-mat/flat/obs-off"]["result"]
    assert report.result.verified
    engines = _assert_released(report)
    # The log's records stay: the master closed intervals this epoch.
    assert any(len(p.lrc.log) for p in engines)
    seg = next(iter(report.experiment.runtime.space.segments.values()))
    with pytest.raises(DsmError, match="final arrays"):
        engines[0].array(seg)


def test_a_released_runs_checkpoint_restores_and_verifies():
    """A checkpoint is a copy of the master's pages, so the release does
    not touch it: restored into a fresh runtime, the driver replays to it
    and the run verifies."""
    spec = SCENARIOS["crash-warm-mat"].spec
    row = run_scenario("crash-warm-mat", MODELS["flat"])
    _assert_released(row.experiment)
    checkpoints = row.experiment.runtime.ckpt_mgr.checkpoints
    assert checkpoints
    ck = checkpoints[0]
    exp = run_experiment(
        spec.build_app, nprocs=spec.nprocs, cfg=spec.build_config(),
        materialized=True, events=lambda rt: restore_checkpoint(rt, ck))
    assert exp.runtime.phases[:len(ck.phases)] == list(ck.phases)
    assert exp.forks == len(exp.runtime.phases) - len(ck.phases)
    assert ScenarioResult.from_experiment(exp).verified

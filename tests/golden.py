"""The golden matrix: the single bitwise oracle of the simulation.

Every modelled output is a deterministic function of the scenario and the
model options, so it can be pinned once and checked forever: each *row* —
``scenario/model/obs`` — runs one tiny scenario and compares SHA-256
digests of everything it produced against ``golden_matrix.json``:

* ``result`` — the canonical :class:`~repro.exec.result.ScenarioResult`
  JSON without its ``events`` field (every row);
* ``memory`` — the bytes of the final shared arrays (materialized rows);
* ``metrics`` / ``chrome_trace`` — the exported telemetry (obs-on rows);
* ``records`` — the instant stream, ``Registry.instants`` (obs-on rows).

Those digests are the modelled outputs.  Beside them each row pins
``events``, the number of simulator events the run executed, as a plain
integer: it is engine bookkeeping, so a change to how the host schedules
the same model moves these lines and nothing else.

The ``result`` digests of the six ``flat/obs-off`` seed rows equal
``SEED_DIGESTS`` in ``tests/exec/test_scale_identity.py``.  Host-side
work may be restructured freely as long as every digest still matches.
``python -m tests.golden`` regenerates the file — for a change *meant* to
alter the model, or an engine change that moves ``events`` only
(docs/TESTING.md §7); ``python -m tests.golden --check`` prints, per
drifted row, which keys differ.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.api import AdaptEvent, ObsConfig, ScenarioSpec, spec_from_preset
from repro.apps.base import AppKernel
from repro.bench.harness import ExperimentResult, run_experiment
from repro.config import DsmParams, PerfParams, SystemConfig
from repro.dsm import Protocol, TmkProgram
from repro.exec.pool import execute_spec
from repro.exec.result import ScenarioResult, canonical_checksum
from repro.obs import Instant
from repro.obs.export import chrome_trace, metrics_dict

DATA_FILE = Path(__file__).with_name("golden_matrix.json")

#: Model options (the ``PerfParams`` that change modelled time/traffic).
MODELS: Dict[str, Dict[str, object]] = {
    "flat": {},
    "tree": {"barrier_tree": True, "barrier_radix": 2},
    "fattree": {"topology": "fattree", "topology_radix": 2},
    "tree+fattree": {"barrier_tree": True, "barrier_radix": 2,
                     "topology": "fattree", "topology_radix": 2},
}

CHAOS_PLAN = "\n".join([
    "0.01 degrade 1 0.5",
    "0.02 duplicate 0.2",
    "0.03 crash 3",
    "0.04 restore 1",
])
#: A lossy UDP wire from the start (§5.1): requests time out and re-send.
LOSS = "0 loss 0.05\n"


class BarrierProgram(AppKernel):
    """Four fork/joins whose bodies meet at an explicit ``ctx.barrier()``."""

    name = "explicit-barrier"
    NPROCS = 5
    ROUNDS = 4

    def program(self, rt, adaptable: bool = True) -> TmkProgram:
        arr = self.shared(rt, "grid", (20, 32), "float64",
                          Protocol.MULTIPLE_WRITER)

        def phase(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
            if ctx.materialized:
                arr.view(ctx)[lo:hi] += pid + 1
            yield from ctx.barrier()
            yield from ctx.access(arr.seg, reads=arr.full())
            yield from ctx.compute(1e-5)

        def driver(api):
            for _ in range(self.ROUNDS):
                yield from api.fork_join("phase")
            yield from api.seq(self.collect)

        return TmkProgram({"phase": phase}, driver, self.name)

    def reference(self):
        arr = self.arrays["grid"]
        grid = np.zeros(arr.shape)
        for pid in range(self.NPROCS):
            lo, hi = arr.block(pid, self.NPROCS)
            grid[lo:hi] = self.ROUNDS * (pid + 1)
        return {"grid": grid}


class LockProgram(AppKernel):
    """A contended lock counter: every tenure closes an interval, and the
    round-robin handoff keeps every peer's applied clock advancing."""

    name = "lock-counter"
    NPROCS = 3
    ROUNDS = 150

    def program(self, rt, adaptable: bool = True) -> TmkProgram:
        arr = self.shared(rt, "counter", (8,), "float64",
                          Protocol.MULTIPLE_WRITER)

        def inc(ctx, pid, nprocs, args):
            for _ in range(self.ROUNDS):
                yield from ctx.lock(1)
                yield from ctx.access(arr.seg, reads=arr.full(), writes=arr.full())
                arr.view(ctx)[0] += 1.0
                ctx.unlock(1)

        def check(ctx, pid, nprocs, args):
            yield from ctx.access(arr.seg, reads=arr.full())

        def driver(api):
            yield from api.fork_join("inc")
            yield from api.fork_join("check")
            yield from api.seq(self.collect)

        return TmkProgram({"inc": inc, "check": check}, driver, self.name)

    def reference(self):
        counter = np.zeros(8)
        counter[0] = self.NPROCS * self.ROUNDS
        return {"counter": counter}


@dataclass(frozen=True)
class Scenario:
    """A spec (run through the engine) or a hand-written program (run
    materialized under the harness)."""

    spec: Optional[ScenarioSpec] = None
    program: Optional[type] = None
    #: ``DsmParams.gc_interval_limit`` override (programs only).
    gc_limit: Optional[int] = None


def _tiny(app: str, nprocs: int = 4, **kwargs) -> ScenarioSpec:
    return spec_from_preset("tiny", app, nprocs, **kwargs)


_ADAPT = _tiny("jacobi", 8, adaptive=True, extra_nodes=2,
               events=(AdaptEvent("leave", 0.03, 3), AdaptEvent("join", 0.06)))
_CRASH = _tiny("jacobi", adaptive=True, extra_nodes=1,
               events=(AdaptEvent("crash", 0.03),), checkpoint_interval=0.02,
               failure_detection=True)
#: The crash lands after the first checkpoint completes (≈0.496 s), so
#: recovery restores it: a warm restart, where ``_CRASH`` is a cold one.
_CRASH_WARM = _CRASH.replaced(events=(AdaptEvent("crash", 0.5),))
#: Wide teams, where most legs of a fan-out wave carry the same notices:
#: Gauss's 768-byte rows are not page aligned, so every page has several
#: writers; a 34x34 Jacobi gives each of 128 processes at most one row.
_GAUSS_WIDE = ScenarioSpec(kernel="gauss", params={"n": 96, "iterations": 8},
                           nprocs=32)
_JACOBI_WIDE = ScenarioSpec(kernel="jacobi", params={"n": 34, "iterations": 2},
                            nprocs=128)
#: An urgent leave: a zero grace period expires at once, so node 2's
#: process migrates mid-region while the whole team is frozen (§4.2).
_URGENT = _tiny("jacobi", adaptive=True, extra_nodes=2,
                events=(AdaptEvent("leave", 0.02, 2, grace=0.0),))

SCENARIOS: Dict[str, Scenario] = {
    **{app: Scenario(_tiny(app)) for app in ("fft3d", "gauss", "jacobi", "nbf")},
    **{f"{app}-mat": Scenario(_tiny(app, materialized=True))
       for app in ("fft3d", "gauss", "jacobi", "nbf")},
    "adapt": Scenario(_ADAPT),
    "crash": Scenario(_CRASH),
    "adapt-mat": Scenario(_ADAPT.replaced(materialized=True)),
    "crash-mat": Scenario(_CRASH.replaced(materialized=True)),
    "crash-warm": Scenario(_CRASH_WARM),
    "crash-warm-mat": Scenario(_CRASH_WARM.replaced(materialized=True)),
    "chaos": Scenario(_CRASH.replaced(events=(), fault_plan=CHAOS_PLAN)),
    "jacobi-mat+loss": Scenario(_tiny("jacobi", materialized=True,
                                      fault_plan=LOSS)),
    "chaos+loss": Scenario(_CRASH.replaced(events=(),
                                           fault_plan=LOSS + CHAOS_PLAN)),
    "barrier": Scenario(program=BarrierProgram),
    "barrier-gc": Scenario(program=BarrierProgram, gc_limit=4),
    "locks": Scenario(program=LockProgram),
    "locks-gc": Scenario(program=LockProgram, gc_limit=100),
    "gauss-wide": Scenario(_GAUSS_WIDE),
    "jacobi-wide": Scenario(_JACOBI_WIDE),
    "urgent": Scenario(_URGENT),
    "urgent-mat": Scenario(_URGENT.replaced(materialized=True)),
}

ROWS = tuple(
    f"{scenario}/{model}/{obs}"
    for scenario in SCENARIOS for model in MODELS for obs in ("obs-off", "obs-on")
)


@dataclass(frozen=True)
class Row:
    """One executed row: the live experiment and what it digests to."""

    experiment: ExperimentResult
    registry: object
    #: SHA-256 digests by output kind, plus the integer ``events``.
    digests: Dict[str, Union[str, int]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record_text(instant: Instant) -> str:
    """An instant in the dataclass-repr text of the simulator's former
    record class (the same four fields), so that ``records`` digests
    pinned before instants moved into ``repro.obs`` still hold."""
    return "TraceRecord" + repr(instant)[len("Instant"):]


def result_digest(result: ScenarioResult) -> str:
    """SHA-256 of the canonical result JSON with ``events`` left out: the
    event count is how the engine got there, not a modelled output."""
    fields = result.to_dict()
    del fields["events"]
    return canonical_checksum(fields)


@functools.lru_cache(maxsize=None)
def run_row(row_id: str) -> Row:
    """Execute one row (once per session) and digest its outputs."""
    name, model, obs = row_id.split("/")
    return run_scenario(name, MODELS[model], obs == "obs-on")


def run_scenario(name: str, perf: Dict[str, object], obs: bool = False) -> Row:
    """Execute scenario ``name`` under the model options ``perf``."""
    scenario = SCENARIOS[name]
    registry = ObsConfig().make_registry() if obs else None
    spec, program = scenario.spec, scenario.program
    if program is not None:
        dsm = DsmParams() if scenario.gc_limit is None else DsmParams(
            gc_interval_limit=scenario.gc_limit)
        exp = run_experiment(
            program, nprocs=program.NPROCS, materialized=True, obs=registry,
            cfg=SystemConfig(perf=PerfParams(**perf), dsm=dsm))
    else:
        exp, _ = execute_spec(spec.replaced(perf=perf), obs=registry)
    sim = exp.runtime.sim
    digests: Dict[str, Union[str, int]] = {
        "result": result_digest(ScenarioResult.from_experiment(exp)),
        "events": sim.events_executed,
    }
    if exp.app.final:
        memory = hashlib.sha256()
        for array_name in sorted(exp.app.final):
            memory.update(exp.app.final[array_name].tobytes())
        digests["memory"] = memory.hexdigest()
    if registry is not None:
        digests["metrics"] = _sha(json.dumps(metrics_dict(registry), sort_keys=True))
        digests["chrome_trace"] = _sha(
            json.dumps(chrome_trace(registry), sort_keys=True))
        digests["records"] = _sha("\n".join(map(_record_text, registry.instants)))
    return Row(exp, registry, digests)


@functools.lru_cache(maxsize=None)
def pinned() -> Dict[str, Dict[str, Union[str, int]]]:
    return json.loads(DATA_FILE.read_text())


def drifted_keys(row_id: str) -> List[str]:
    """Run ``row_id``; the keys whose value is not the pinned one."""
    got, want = run_row(row_id).digests, pinned().get(row_id, {})
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def golden_row(row_id: str) -> Row:
    """Run ``row_id``, assert it matches its pinned digests, return it."""
    keys = drifted_keys(row_id)
    assert not keys, f"{row_id} drifted from its golden in {', '.join(keys)}"
    return run_row(row_id)


def check() -> int:
    """Print every drifted row with the keys that differ; 1 if any did."""
    moved: Dict[str, int] = {}
    rows = 0
    for row_id in ROWS:
        keys = drifted_keys(row_id)
        if not keys:
            continue
        rows += 1
        got, want = run_row(row_id).digests, pinned().get(row_id, {})
        shown = [
            f"events {want.get(k)} -> {got.get(k)}" if k == "events" else k
            for k in keys
        ]
        print(f"{row_id}: {', '.join(shown)}")
        for k in keys:
            moved[k] = moved.get(k, 0) + 1
    summary = ", ".join(f"{k} in {n}" for k, n in sorted(moved.items()))
    print(f"{rows} of {len(ROWS)} rows drifted" + (f": {summary}" if rows else ""))
    return 1 if rows else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the data file instead of rewriting it")
    if parser.parse_args().check:
        sys.exit(check())
    DATA_FILE.write_text(json.dumps(
        {row_id: run_row(row_id).digests for row_id in ROWS},
        indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ROWS)} rows in {DATA_FILE}")

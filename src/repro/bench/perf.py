"""Wall-clock performance benchmarks of the simulator engine itself.

Everything else in :mod:`repro.bench` measures *simulated* quantities
(Table 1 runtimes, traffic, adaptation cost), which are deterministic and
machine-independent.  This module measures how fast the engine produces
them: wall-clock seconds, executed events per second, and simulated
seconds per wall second, for end-to-end scenarios plus microbenchmarks of
the protocol hot paths.

Raw wall-clock numbers are machine-dependent, so every report includes a
*calibration*: the events/second of a bare simulator spinning no-op
events on the same machine and interpreter.  ``normalized_score`` (scenario
events/sec divided by spin events/sec) cancels machine speed to first
order and is what the regression gate compares, letting a committed
baseline from one machine guard CI runs on another.

Used by ``python -m repro perfbench`` (see ``--baseline`` /
``--max-regression`` for the CI gate) which writes ``BENCH_perf.json``.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec import ScenarioSpec

SCHEMA = "repro-perfbench/2"

#: Events in the calibration spin loop.
SPIN_EVENTS = 100_000

#: Events in the short spin paired with each scenario repeat.
PAIR_SPIN_EVENTS = 30_000


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
def calibrate_spin(n_events: int = SPIN_EVENTS) -> float:
    """Events/second of a bare simulator executing chained no-op events.

    This is the ceiling of the event loop on this machine — heap pop,
    time advance, callback dispatch, nothing else.
    """
    from ..simcore import Simulator

    sim = Simulator()

    remaining = n_events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(1.0e-9, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return n_events / wall if wall > 0 else float("inf")


# ---------------------------------------------------------------------------
# microbenchmarks of the protocol hot paths
# ---------------------------------------------------------------------------
def _build_micro_runtime():
    """A minimal 2-node traced runtime for direct engine-method timing."""
    from ..cluster import NodePool
    from ..config import SystemConfig
    from ..dsm import TmkRuntime
    from ..network import Switch
    from ..simcore import Simulator

    cfg = SystemConfig()
    sim = Simulator()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = TmkRuntime(sim, cfg, pool.add_nodes(2), materialized=False)
    return rt


def micro_notice_apply(n_notices: int = 50_000) -> float:
    """Notices/second through ``apply_notices`` (the engine's hottest loop)."""
    from ..dsm.intervals import IntervalNotice, NoticeBatch
    from ..dsm.page import Protocol
    from ..dsm.vectorclock import VectorClock

    rt = _build_micro_runtime()
    proc = rt.procs[0]
    seg = rt.space.alloc("micro", n_notices * 8, protocol=Protocol.MULTIPLE_WRITER, home=1)
    pages = tuple(seg.pages)
    intervals = []
    vc = VectorClock.zeros(2)
    for seq in range(1, n_notices // len(pages) + 1):
        vc = vc.copy()
        vc.advance(1, seq)
        intervals.append(IntervalNotice(1, seq, vc, pages))
    batch = NoticeBatch(intervals)
    t0 = time.perf_counter()
    proc.apply_notices(batch, vc)
    wall = time.perf_counter() - t0
    return len(batch) / wall if wall > 0 else float("inf")


def micro_plan_lookup(n_lookups: int = 200_000) -> float:
    """Plan-cache hits/second on a recurring Jacobi-like access pattern."""
    from ..dsm.memory import AddressSpace
    from ..dsm.page import Protocol

    space = AddressSpace(page_size=4096)
    seg = space.alloc("micro", 4096 * 64, protocol=Protocol.MULTIPLE_WRITER)
    cache = space.plan_cache
    reads = ((0, 4096 * 16),)
    writes = ((4096 * 4 + 128, 4096 * 12 - 64),)
    cache.lookup(seg, reads, writes, 4096)  # prime the memo
    t0 = time.perf_counter()
    for _ in range(n_lookups):
        cache.lookup(seg, reads, writes, 4096)
    wall = time.perf_counter() - t0
    return n_lookups / wall if wall > 0 else float("inf")


def micro_diff_apply(n_applies: int = 20_000) -> float:
    """Diff applications/second on the contiguous-scatter path.

    The diff has ~25 dirty runs, so :meth:`Diff.apply` takes its fancy-index
    branch — one scatter from the contiguous ``buf`` via the cached
    positions array, the pattern every multi-run fetch hits.
    """
    import numpy as np

    from ..dsm.diffs import make_diff
    from ..dsm.vectorclock import VectorClock

    rng = np.random.default_rng(0xD1FF)
    twin = np.zeros(4096, dtype=np.uint8)
    current = twin.copy()
    for start in range(0, 4096, 170):  # ~25 sparse dirty runs
        end = min(start + 48, 4096)
        current[start:end] = rng.integers(1, 255, size=end - start, dtype=np.uint8)
    diff = make_diff(
        proc=0, seq=1, page=0, vc=VectorClock([1, 0]),
        declared_ranges=[], twin=twin, current=current,
    )
    target = np.zeros(4096, dtype=np.uint8)
    diff.apply(target)  # warm the cached (starts, ends, offsets) index
    t0 = time.perf_counter()
    for _ in range(n_applies):
        diff.apply(target)
    wall = time.perf_counter() - t0
    return n_applies / wall if wall > 0 else float("inf")


def micro_vc_tick(n_ticks: int = 200_000) -> float:
    """tick+snapshot cycles/second on a width-8 clock.

    Each iteration snapshots the clock (freezing it) and then ticks it
    (forcing one copy-on-write detach) — exactly the per-interval-close
    pattern of the interned-clock scheme.
    """
    from ..dsm.vectorclock import VectorClock

    vc = VectorClock.zeros(8)
    t0 = time.perf_counter()
    for _ in range(n_ticks):
        vc.snapshot()
        vc.tick(3)
    wall = time.perf_counter() - t0
    return n_ticks / wall if wall > 0 else float("inf")


def run_micro() -> Dict[str, float]:
    """All microbenchmarks (ops/second each)."""
    return {
        "event_spin_per_sec": calibrate_spin(),
        "notice_apply_per_sec": micro_notice_apply(),
        "plan_lookup_per_sec": micro_plan_lookup(),
        "diff_apply_per_sec": micro_diff_apply(),
        "vc_tick_per_sec": micro_vc_tick(),
    }


# ---------------------------------------------------------------------------
# end-to-end scenarios (executed through the repro.exec engine)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PerfScenario:
    """One end-to-end engine benchmark: a declarative scenario spec."""

    name: str
    spec: "ScenarioSpec"

    @property
    def nprocs(self) -> int:
        return self.spec.nprocs


def scenarios(quick: bool = False, paper: bool = False) -> List[PerfScenario]:
    """The scenario list for this run.

    Default: the BENCH-preset Jacobi and Gauss on 8 nodes (the profiles
    that drove the hot-path engine work).  ``quick`` shrinks them for CI
    smoke runs; ``paper`` adds the full Table-1 Jacobi configuration
    (minutes of wall time).
    """
    from ..exec.spec import ScenarioSpec, spec_from_preset

    if quick:
        out = [
            PerfScenario("jacobi-8-quick", ScenarioSpec(
                kernel="jacobi", params={"n": 350, "iterations": 20},
                nprocs=8, calibrated=True, label="jacobi-8-quick")),
            PerfScenario("gauss-8-quick", ScenarioSpec(
                kernel="gauss", params={"n": 256, "iterations": 255},
                nprocs=8, calibrated=True, label="gauss-8-quick")),
            # Wide-cluster stressor: 32 nodes quadruple the per-barrier
            # notice fan-out (the O(nprocs^2 * pages) single-writer
            # rebroadcast arm) and the macro-event bucket widths.
            PerfScenario("gauss-32-quick", ScenarioSpec(
                kernel="gauss", params={"n": 192, "iterations": 95},
                nprocs=32, calibrated=True, label="gauss-32-quick")),
            # Wider still: 64 nodes double every fork/release wave's leg
            # count, so the flight-batched transport (PROTOCOL.md §13)
            # carries most of the wire traffic.
            PerfScenario("gauss-64-quick", ScenarioSpec(
                kernel="gauss", params={"n": 192, "iterations": 47},
                nprocs=64, calibrated=True, label="gauss-64-quick")),
        ]
    else:
        # The BENCH workload presets with their stock (uncalibrated)
        # compute rates — identical simulations to the pre-engine suite,
        # so committed baselines carry over.
        out = [
            PerfScenario("jacobi-8", spec_from_preset(
                "bench", "jacobi", 8, calibrated=False, label="jacobi-8")),
            PerfScenario("gauss-8", spec_from_preset(
                "bench", "gauss", 8, calibrated=False, label="gauss-8")),
        ]
    if paper:
        out.append(PerfScenario("jacobi-8-paper", spec_from_preset(
            "paper", "jacobi", 8, calibrated=False, label="jacobi-8-paper")))
    return out


def _entry_from_result(result, wall: float, cached: bool = False) -> Dict[str, float]:
    """A report entry from a ScenarioResult + measured wall seconds."""
    entry = {
        "wall_seconds": wall,
        "sim_seconds": result.runtime_seconds,
        "events": result.events,
        "events_per_sec": result.events / wall if wall > 0 else float("inf"),
        "sim_per_wall": result.runtime_seconds / wall if wall > 0 else float("inf"),
        "messages": result.messages,
        "pages": result.pages,
        "diffs": result.diffs,
    }
    if cached:
        # Wall numbers replayed from the cache, not measured this run.
        entry["cached"] = True
    return entry


def run_scenario(scenario: PerfScenario, repeat: int = 1) -> Dict[str, float]:
    """Run one scenario ``repeat`` times; report the best wall time.

    The simulated outputs (runtime, traffic) are identical across repeats
    by construction — only the wall clock varies.
    """
    from ..api import run as api_run

    report = api_run(scenario.spec, repeat=repeat)
    return _entry_from_result(report.result, report.wall_seconds)


def run_scenario_paired(spec: "ScenarioSpec", repeats: int = 3):
    """``repeats`` interleaved (spin, scenario) measurement pairs.

    Each repeat re-calibrates a short no-op spin immediately before the
    scenario run and records the *paired* normalized score
    ``(events/wall) / spin`` — so machine-speed drift (thermal throttling,
    a neighbour stealing the core mid-suite) is cancelled per sample, not
    once per suite.  Returns ``(result, best_wall, samples)``; the sample
    list is what :func:`compare_to_baseline` feeds its confidence
    interval.
    """
    from ..api import run as api_run

    samples: List[float] = []
    best_wall = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        spin = calibrate_spin(PAIR_SPIN_EVENTS)
        rep = api_run(spec)
        wall = rep.wall_seconds
        result = rep.result
        if wall < best_wall:
            best_wall = wall
        if wall > 0 and spin > 0:
            samples.append((result.events / wall) / spin)
    return result, best_wall, samples


# ---------------------------------------------------------------------------
# parallel-sweep check: the engine's --jobs speedup, measured
# ---------------------------------------------------------------------------
def run_parallel_check(
    n_scenarios: int = 8, jobs: Optional[int] = None,
    n: int = 280, iterations: int = 16,
) -> Dict[str, float]:
    """Measure ``run_specs`` wall-clock speedup: serial vs ``jobs`` workers.

    Builds ``n_scenarios`` equal-cost, distinct-digest Jacobi scenarios
    (the seed field varies, so no two are cache-equivalent), runs the
    list with ``jobs=1`` (in-process serial — the legacy execution path)
    and again with the worker pool, and reports both walls plus the
    bitwise-identity verdict of the two result lists.
    """
    from ..api import sweep
    from ..exec.pool import default_jobs
    from ..exec.spec import ScenarioSpec

    jobs = jobs if jobs is not None else default_jobs()
    specs = [
        ScenarioSpec(
            kernel="jacobi", params={"n": n, "iterations": iterations},
            nprocs=8, calibrated=True, seed=0x5EED + k, label=f"par-{k}",
        )
        for k in range(n_scenarios)
    ]
    serial = sweep(specs, jobs=1)
    parallel = sweep(specs, jobs=jobs)
    identical = (
        [a.to_json() for a in serial.results]
        == [b.to_json() for b in parallel.results]
    )
    speedup = (
        serial.wall_seconds / parallel.wall_seconds
        if parallel.wall_seconds > 0 else float("inf")
    )
    return {
        "scenarios": len(specs),
        "jobs": parallel.jobs,
        "serial_wall_seconds": serial.wall_seconds,
        "parallel_wall_seconds": parallel.wall_seconds,
        "speedup": speedup,
        "identical": identical,
    }


# ---------------------------------------------------------------------------
# observability-identity check: obs on vs off must not change the model
# ---------------------------------------------------------------------------
def run_obs_identity_check(quick: bool = True) -> Dict:
    """Run each scenario with observability off and on; compare outputs.

    The obs layer records spans and counters *about* the simulation; it
    must never perturb the simulation itself.  This executes every
    perfbench scenario twice — once uninstrumented, once with a live
    :class:`~repro.obs.Registry` — and compares the canonical JSON of the
    two :class:`~repro.exec.ScenarioResult`\\ s (modelled runtime, traffic,
    event/message/page/diff counts).  Any difference is a leak of the
    instrumentation into the model.
    """
    from ..exec.pool import execute_spec
    from ..exec.result import ScenarioResult
    from ..obs import Registry

    def canonical(spec) -> str:
        exp, _ = execute_spec(spec)
        return ScenarioResult.from_experiment(
            exp, events=exp.runtime.sim.events_executed
        ).to_json()

    def canonical_obs(spec) -> str:
        obs = Registry()
        exp, _ = execute_spec(spec, obs=obs)
        return ScenarioResult.from_experiment(
            exp, events=exp.runtime.sim.events_executed
        ).to_json()

    checked = []
    mismatches = []
    for scenario in scenarios(quick=quick):
        checked.append(scenario.name)
        if canonical(scenario.spec) != canonical_obs(scenario.spec):
            mismatches.append(scenario.name)
    return {"scenarios": checked, "mismatches": mismatches,
            "identical": not mismatches}


# ---------------------------------------------------------------------------
# profiling: the floor-hunting view, without ad-hoc instrumentation
# ---------------------------------------------------------------------------
def profile_scenarios(
    quick: bool = False, paper: bool = False, top: int = 25
) -> str:
    """cProfile each perfbench scenario; return the formatted top tables.

    One profiled pass per scenario, sorted by cumulative time and
    truncated to ``top`` rows — the view every "where did the wall clock
    go" hunt starts from.  Profiled walls are 2-4x the real ones
    (tracing overhead), so this never feeds the measurement path; it is
    a separate diagnostic pass.
    """
    import cProfile
    import io
    import pstats

    from ..exec.pool import execute_spec

    out = io.StringIO()
    for scenario in scenarios(quick=quick, paper=paper):
        profiler = cProfile.Profile()
        profiler.enable()
        execute_spec(scenario.spec)
        profiler.disable()
        out.write(f"\n== profile: {scenario.name} "
                  f"(top {top} by cumulative time) ==\n")
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("cumulative").print_stats(top)
    return out.getvalue()


# ---------------------------------------------------------------------------
# the full report + regression gate
# ---------------------------------------------------------------------------
def run_perfbench(
    quick: bool = False, paper: bool = False, repeat: int = 1,
    jobs: int = 1, cache=None, refresh: bool = False,
    parallel_check: bool = False,
) -> Dict:
    """Run calibration, microbenchmarks, and all scenarios; build the report.

    ``jobs`` shards the end-to-end scenarios across the
    :mod:`repro.exec` worker pool (each worker times its own scenario;
    with more workers than cores the absolute wall numbers degrade, but
    ``normalized_score`` still cancels machine speed to first order).
    ``cache`` (a :class:`~repro.exec.ResultCache`) replays previously
    measured entries — their wall numbers come from the run that stored
    them and are marked ``"cached": true``.

    Single-job uncached runs measure each scenario via
    :func:`run_scenario_paired`, recording per-repeat spin-normalized
    ``samples`` alongside the best-wall summary; those samples power the
    confidence-interval regression gate.  Sharded or cache-replayed runs
    keep the sweep path (no samples — cached walls and cross-worker
    timing cannot be paired honestly), and the gate falls back to the
    point comparison for them.
    """
    from ..api import sweep

    spin = calibrate_spin()
    micro = {
        "event_spin_per_sec": spin,
        "notice_apply_per_sec": micro_notice_apply(),
        "plan_lookup_per_sec": micro_plan_lookup(),
        "diff_apply_per_sec": micro_diff_apply(),
        "vc_tick_per_sec": micro_vc_tick(),
    }
    scen = scenarios(quick=quick, paper=paper)
    results: Dict[str, Dict[str, float]] = {}
    cache_stats = None
    if jobs == 1 and cache is None:
        for scenario in scen:
            result, wall, samples = run_scenario_paired(scenario.spec, repeat)
            entry = _entry_from_result(result, wall)
            entry["normalized_score"] = (
                entry["events_per_sec"] / spin if spin > 0 else 0.0
            )
            entry["samples"] = samples
            results[scenario.name] = entry
    else:
        outcome = sweep(
            [s.spec for s in scen], jobs=jobs, cache=cache, refresh=refresh,
            repeat=repeat,
        )
        cache_stats = (
            outcome.cache_stats.as_dict() if cache is not None else None
        )
        for scenario, task in zip(scen, outcome.outcomes):
            entry = _entry_from_result(task.result, task.wall_seconds,
                                       cached=task.cached)
            entry["normalized_score"] = (
                entry["events_per_sec"] / spin if spin > 0 else 0.0
            )
            results[scenario.name] = entry
    report = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "repeat": repeat,
        "jobs": jobs,
        "cache": cache_stats,
        "calibration": {"spin_events_per_sec": spin, "spin_events": SPIN_EVENTS},
        "micro": micro,
        "results": results,
    }
    if parallel_check:
        report["parallel"] = run_parallel_check()
    return report


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


# Two-sided 95% Student-t critical values; the largest tabulated df not
# exceeding the Welch estimate is used, which rounds the interval wider
# (conservative: harder to flag a regression by chance).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
    20: 2.086, 25: 2.060, 30: 2.042, 60: 2.000, 120: 1.980,
}


def _t95(df: float) -> float:
    crit = _T95[1]
    for k in sorted(_T95):
        if k <= df:
            crit = _T95[k]
    return crit


def _geomean(samples: Sequence[float]) -> float:
    logs = [math.log(s) for s in samples if s > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def ratio_confidence_interval(
    new_samples: Sequence[float], base_samples: Sequence[float]
) -> Optional[Tuple[float, float]]:
    """95% CI for the geometric-mean score ratio new/base.

    Welch's t interval on the difference of mean log-scores (log space
    because the paired scores are ratios themselves, and wall-clock noise
    is multiplicative).  Returns multiplicative ``(lo, hi)`` bounds, or
    ``None`` when either side has fewer than two positive samples — the
    caller must then fall back to a point comparison.
    """
    a = [math.log(s) for s in new_samples if s > 0]
    b = [math.log(s) for s in base_samples if s > 0]
    if len(a) < 2 or len(b) < 2:
        return None
    n1, n2 = len(a), len(b)
    m1, m2 = sum(a) / n1, sum(b) / n2
    v1 = sum((x - m1) ** 2 for x in a) / (n1 - 1)
    v2 = sum((x - m2) ** 2 for x in b) / (n2 - 1)
    d = m1 - m2
    se2 = v1 / n1 + v2 / n2
    if se2 <= 0.0:
        return (math.exp(d), math.exp(d))
    # Welch–Satterthwaite degrees of freedom.
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    half = _t95(df) * math.sqrt(se2)
    return (math.exp(d - half), math.exp(d + half))


def compare_to_baseline(
    report: Dict, baseline: Dict, max_regression: float = 0.30
) -> List[Tuple[str, float, float, float]]:
    """Regressions of ``report`` vs ``baseline``.

    Two modes, chosen per scenario:

    * **Paired confidence-interval gate** — when both entries carry
      ``samples`` (the per-repeat spin-normalized scores recorded by
      single-job runs), the scenario is flagged only when the *entire*
      95% Welch interval for the geometric-mean ratio new/old lies below
      ``1 - max_regression``: the drop is statistically resolved, not a
      lucky or unlucky wall-clock draw.  An improvement, a wash, or an
      interval still straddling the allowance all pass.
    * **Point fallback** — when either side predates samples (older
      committed baselines, sharded or cache-replayed runs), the single
      ``normalized_score`` comparison is used unchanged.

    Returns ``(name, baseline_score, new_score, regression_fraction)``
    for every flagged scenario (geometric means in CI mode).  Scenarios
    present in only one report are ignored (presets may evolve).
    """
    regressions = []
    base_results = baseline.get("results", {})
    for name, entry in report.get("results", {}).items():
        base = base_results.get(name)
        if base is None:
            continue
        ci = ratio_confidence_interval(
            entry.get("samples") or (), base.get("samples") or ()
        )
        if ci is not None:
            _, hi = ci
            if hi < 1.0 - max_regression:
                old = _geomean(base["samples"])
                new = _geomean(entry["samples"])
                regressions.append((name, old, new, 1.0 - new / old))
            continue
        old = base.get("normalized_score", 0.0)
        new = entry.get("normalized_score", 0.0)
        if old <= 0:
            continue
        drop = 1.0 - new / old
        if drop > max_regression:
            regressions.append((name, old, new, drop))
    return regressions

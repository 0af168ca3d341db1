"""The five workloads: inputs from the seed, one pass, output checks.

A *pass* is a fixed list of *operations* (one scenario run, or one leg of
the task grid); ``measure.py`` times each operation between two
calibration chunks.  The seed draws everything that may vary without
changing how much work a pass is — spec seeds (so config digests differ
from run to run), the order of operations, adapt-event times and node
ids, the grid order — and the program only ever sees the resulting
:class:`~repro.exec.spec.ScenarioSpec` objects.  Problem sizes are fixed
per workload: the benchmark is accepted on the spread of its medians
*across seeds*, so a size band would be read as noise.

Why each workload exists is recorded once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Worker processes of ``sweep-grid`` (pool slots and service workers).
WORKERS = 2

#: Nodes adapt-churn takes away: never the master, and not the last pid
#: either — how much data a leave moves depends on where in the pid
#: order it sits (the paper's Figure 3), and the seed must not change
#: the amount of work.
INTERIOR_NODES = (2, 3, 4, 5)

_TREE_FATTREE = {"barrier_tree": True, "barrier_radix": 4,
                 "topology": "fattree", "topology_radix": 8}


@dataclass
class OpOutcome:
    """What one operation of a pass produced."""

    kind: str
    #: Host seconds of the operation's timed region, as measured.
    wall: float
    #: Scenario runs or grid tasks attempted / failed in this operation.
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: ``{key: canonical result JSON}`` — compared pass to pass and
    #: against the traced pass.
    results: Dict[str, str] = field(default_factory=dict)
    #: Live :class:`~repro.api.RunReport` objects (scenario operations).
    reports: List[Any] = field(default_factory=list)
    #: Operation-specific measurements for the per-layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: ``wall`` rescaled to the reference host (set by the timer).
    scaled: float = 0.0


Timer = Callable[[str, Callable[[], OpOutcome]], OpOutcome]


def _plain_timer(kind: str, op: Callable[[], OpOutcome]) -> OpOutcome:
    return op()


def _span(tracer, name: str):
    """A benchmark-level span when tracing, nothing otherwise."""
    return tracer.span(name) if tracer else nullcontext()


# ---------------------------------------------------------------------------
# scenario workloads: a pass is a list of api.run calls
# ---------------------------------------------------------------------------
@dataclass
class Scenario:
    kind: str
    spec: Any
    #: Scripted events that must show up in ``adapt_records``, as
    #: ``(record field, node)`` — e.g. ``("urgent_leaves", 5)``.
    expect: Tuple[Tuple[str, int], ...] = ()


class ScenarioWorkload:
    """Base of the four single-process workloads."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.scenarios: List[Scenario] = self.draw()

    def draw(self) -> List[Scenario]:
        raise NotImplementedError

    def spec_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    # -- lifecycle -----------------------------------------------------------
    def warm_up(self) -> None:
        """One discarded pass: imports, numpy, plan caches."""
        failures = [f for op in self.run_pass() for f in op.failures]
        if failures:
            raise RuntimeError(f"{self.name}: warm-up failed: {failures[0]}")

    def close(self) -> None:
        pass

    # -- one pass ------------------------------------------------------------
    def run_pass(self, timer: Timer = _plain_timer, tracer=None,
                 obs: bool = False) -> List[OpOutcome]:
        return [
            timer(sc.kind, lambda sc=sc: run_scenario(sc, tracer, obs))
            for sc in self.scenarios
        ]


def run_scenario(sc: Scenario, tracer=None, obs: bool = False) -> OpOutcome:
    """``api.run`` one scenario and check everything checkable about it."""
    import repro.api as api
    from repro.errors import ReproError

    scope = tracer.scenario(sc.spec.config_digest()) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            report = api.run(sc.spec, obs=api.ObsConfig() if obs else None)
    except ReproError as err:
        return OpOutcome(sc.kind, time.perf_counter() - t0, 1,
                         [f"{sc.kind}: raised {err!r}"])
    wall = time.perf_counter() - t0
    result = report.result
    failures = []
    if result.verified is False or (sc.spec.materialized and result.verified is None):
        failures.append(f"{sc.kind}: verification against the sequential "
                        f"reference failed (verified={result.verified})")
    for record_field, node in sc.expect:
        if not any(node in rec.get(record_field, ())
                   for rec in result.adapt_records):
            failures.append(f"{sc.kind}: scripted {record_field} of node "
                            f"{node} missing from the records")
    if obs and not report.cost_breakdown.consistent():
        failures.append(f"{sc.kind}: adaptation phases do not tile adapt.total")
    return OpOutcome(sc.kind, wall, 1, failures,
                     results={sc.kind: result.to_json()}, reports=[report])


class GaussWide(ScenarioWorkload):
    name = "gauss-wide"

    def draw(self) -> List[Scenario]:
        from repro.api import ScenarioSpec

        # 1536-byte rows: not page aligned, so every page has several
        # writers and the run is notices, intervals and vector clocks.
        n, procs = (48, 8) if self.smoke else (192, 32)
        return [Scenario("gauss", ScenarioSpec(
            kernel="gauss", params={"n": n, "iterations": n - 1}, nprocs=procs,
            seed=self.spec_seed(), label=f"gauss-{procs}"))]


class MatVerify(ScenarioWorkload):
    name = "mat-verify"

    def draw(self) -> List[Scenario]:
        from repro.api import ScenarioSpec

        if self.smoke:
            sizes = [("jacobi", {"n": 40, "iterations": 2}),
                     ("gauss", {"n": 64, "iterations": 8}),
                     ("fft3d", {"nx": 8, "ny": 8, "nz": 8, "iterations": 1}),
                     ("nbf", {"natoms": 256, "npartners": 4, "iterations": 2})]
        else:
            sizes = [
                # unaligned rows: real twins and diffs
                ("jacobi", {"n": 250, "iterations": 5}),
                # page-aligned rows: single-writer whole-page fetches, no diffs
                ("gauss", {"n": 512, "iterations": 40}),
                ("fft3d", {"nx": 32, "ny": 32, "nz": 32, "iterations": 4}),
                ("nbf", {"natoms": 8192, "npartners": 16, "iterations": 12}),
            ]
        scenarios = [Scenario(kernel, ScenarioSpec(
            kernel=kernel, params=params, nprocs=8, materialized=True,
            seed=self.spec_seed(), label=f"mat-{kernel}")) for kernel, params in sizes]
        self.rng.shuffle(scenarios)
        return scenarios


class WideSync(ScenarioWorkload):
    name = "wide-sync"

    def draw(self) -> List[Scenario]:
        from repro.api import ScenarioSpec

        # A 34x34 grid gives each of the 128 processes at most one row:
        # the run is fork, join and barrier waves, not data (at 512x512
        # ingesting the notices of the master's initial write was 70 %).
        n, iterations, procs = (18, 2, 16) if self.smoke else (34, 6, 128)
        scenarios = [
            Scenario(kind, ScenarioSpec(
                kernel="jacobi", params={"n": n, "iterations": iterations},
                nprocs=procs, perf=perf, seed=self.spec_seed(),
                label=f"sync-{kind}"))
            for kind, perf in (("flat-star", {}), ("tree-fattree", _TREE_FATTREE))
        ]
        self.rng.shuffle(scenarios)
        return scenarios


class AdaptChurn(ScenarioWorkload):
    """Two scripted adaptive runs of Jacobi on 8 processes + 2 spare nodes.

    The event times are placed against the run's fixed timeline (700x700:
    first fork at 0.53 s simulated, 0.058 s per iteration, 0.6-0.8 s to
    set a joiner up, 1.8 s to migrate a process) with margins wider than
    the jitter, so every scripted event is processed before the run ends.
    """

    name = "adapt-churn"

    def draw(self) -> List[Scenario]:
        return [self.draw_churn(), self.draw_checkpointed()]

    def _jitter(self, t: float) -> float:
        width = 0.001 if self.smoke else 0.03
        return round(t + self.rng.uniform(-width, width), 4)

    def _scenario(self, kind: str, script, iterations: int, **spec_fields) -> Scenario:
        """``script`` rows are ``(action, time, node, grace)``; times get
        the seed's jitter, and every row must show up in the records."""
        from repro.api import AdaptEvent, ScenarioSpec

        events = tuple(AdaptEvent(action, self._jitter(t), node, grace)
                       for action, t, node, grace in script)
        expect = tuple(
            ("joins" if action == "join" else
             "urgent_leaves" if grace == 0.0 else "leaves", node)
            for action, _, node, grace in script)
        spec = ScenarioSpec(
            kernel="jacobi",
            params={"n": 96 if self.smoke else 700, "iterations": iterations},
            nprocs=8, adaptive=True, extra_nodes=2, seed=self.spec_seed(),
            events=events, label=f"adapt-{kind}", **spec_fields)
        return Scenario(kind, spec, expect)

    def draw_churn(self) -> Scenario:
        """leave -> join -> urgent leave (grace 0: migration, then
        multiplexing) -> two joins that set up during the migration ->
        leave, never on the master.  Four adaptation points."""
        x, y, z = self.rng.sample(INTERIOR_NODES, 3)
        if self.smoke:
            return self._scenario("churn", [
                ("leave", 0.012, x, None), ("leave", 0.020, y, 0.0),
                ("join", 0.022, 8, None)], iterations=12)
        return self._scenario("churn", [
            ("leave", 0.60, x, None), ("join", 0.64, 8, None),
            ("leave", 1.45, y, 0.0), ("join", 1.52, 9, None),
            ("join", 1.60, x, None), ("leave", 4.00, z, None)], iterations=24)

    def draw_checkpointed(self) -> Scenario:
        """leave + join while the master checkpoints every 0.5 s: GC at
        the fork point, page collection from the peers, image to disk."""
        x = self.rng.choice(INTERIOR_NODES)
        if self.smoke:
            return self._scenario("checkpointed", [("leave", 0.012, x, None)],
                                  iterations=12, checkpoint_interval=0.05)
        return self._scenario("checkpointed", [
            ("leave", 0.60, x, None), ("join", 0.64, 8, None)],
            iterations=16, checkpoint_interval=0.5)


# ---------------------------------------------------------------------------
# sweep-grid: the execution tier
# ---------------------------------------------------------------------------
class SweepGrid:
    """A 24-task grid through the local pool and through the service.

    Per pass, with fresh spec seeds so every task is cold: the first
    :attr:`pool_tasks` tasks go through ``api.sweep(jobs=2)`` into an empty
    cache (one spawned process per task) and again warm; then all tasks go
    through ``api.submit`` to an in-process coordinator with two spawned
    workers, cold and again warm.  The pool leg is kept short because a
    spawn costs ~0.5 s against ~30 ms of simulation per task.
    """

    name = "sweep-grid"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.scratch = scratch
        self.pool_tasks = 2 if smoke else 6
        self._pass_index = 0
        #: The specs of the latest pass (the traced run re-runs them serially).
        self.last_grid: List[Any] = []
        self.coordinator = None
        self.workers: List[Any] = []

    # -- inputs --------------------------------------------------------------
    def grid(self) -> List[Any]:
        """4 kernels x {2,4,8} processes x 2 spec seeds, shuffled."""
        from repro.api import ScenarioSpec

        if self.smoke:
            sizes = [("jacobi", {"n": 40, "iterations": 2})]
            procs: Sequence[int] = (2, 4)
        else:
            sizes = [("jacobi", {"n": 160, "iterations": 6}),
                     ("gauss", {"n": 128, "iterations": 60}),
                     ("fft3d", {"nx": 16, "ny": 16, "nz": 16, "iterations": 2}),
                     ("nbf", {"natoms": 2048, "npartners": 8, "iterations": 4})]
            procs = (2, 4, 8)
        base = self.rng.randrange(1, 2**30)
        specs = [
            ScenarioSpec(kernel=kernel, params=params, nprocs=p, seed=base + s,
                         label=f"{kernel}-{p}-s{s}")
            for kernel, params in sizes for p in procs for s in (0, 1)
        ]
        self.rng.shuffle(specs)
        return specs

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Coordinator in this process, :data:`WORKERS` spawned workers."""
        import repro.api as api
        from repro.exec.service import service_status
        from repro.exec.worker import worker_main

        self.coordinator = api.serve(
            cache_dir=os.path.join(self.scratch, "coordinator-cache"))
        ctx = multiprocessing.get_context("spawn")
        for _ in range(WORKERS):
            worker = ctx.Process(target=worker_main,
                                 args=(self.coordinator.address,))
            worker.start()
            self.workers.append(worker)
        deadline = time.monotonic() + 60.0
        while service_status(self.coordinator.address)["counters"]["workers"] < WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("sweep-grid: workers did not register")
            time.sleep(0.01)

    def warm_up(self) -> None:
        self.start()
        specs = self.grid()
        failures = self._pool_leg(specs[:2]).failures
        failures += self._service_leg(specs[:4]).failures
        if failures:
            raise RuntimeError(f"{self.name}: warm-up failed: {failures[0]}")

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
        for worker in self.workers:
            worker.join(10.0)
            if worker.is_alive():
                worker.kill()
                worker.join(10.0)
        self.workers = []

    # -- one pass ------------------------------------------------------------
    def run_pass(self, timer: Timer = _plain_timer, tracer=None,
                 obs: bool = False) -> List[OpOutcome]:
        specs = self.last_grid = self.grid()
        pool = timer("pool", lambda: self._pool_leg(specs[:self.pool_tasks], tracer))
        service = timer("service", lambda: self._service_leg(specs, tracer))
        for key, text in pool.results.items():
            if service.results.get(key) != text:
                service.failures.append(
                    f"service: result of {key} differs from the local pool's")
        return [pool, service]

    def _pool_leg(self, specs: List[Any], tracer=None) -> OpOutcome:
        import repro.api as api
        from repro.exec.cache import ResultCache

        self._pass_index += 1
        root = os.path.join(self.scratch, f"pool-cache-{self._pass_index}")
        cache = ResultCache(root=root)
        try:
            t0 = time.perf_counter()
            with _span(tracer, "exec.pool"):
                cold = api.sweep(specs, jobs=WORKERS, cache=cache)
            wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            with _span(tracer, "exec.pool.warm"):
                warm = api.sweep(specs, jobs=WORKERS, cache=cache)
            warm_wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(root, ignore_errors=True)
        failures = []
        if cold.executed != len(specs):
            failures.append(f"pool: cold sweep executed {cold.executed} of "
                            f"{len(specs)} tasks")
        if warm.executed != 0 or warm.cache_hits != len(specs):
            failures.append(f"pool: warm sweep executed {warm.executed} tasks "
                            f"({warm.cache_hits} hits)")
        for a, b in zip(cold.results, warm.results):
            if a.to_json() != b.to_json():
                failures.append("pool: warm result differs from the cold one")
        return OpOutcome(
            "pool", wall, 2 * len(specs), failures,
            results={s.config_digest(): r.to_json()
                     for s, r in zip(specs, cold.results)},
            extra={"warm_wall": warm_wall, "tasks": len(specs),
                   "retried": cold.retried + warm.retried,
                   "hits": cache.stats.hits, "misses": cache.stats.misses})

    def _service_leg(self, specs: List[Any], tracer=None) -> OpOutcome:
        import repro.api as api
        from repro.exec.service import service_status

        address = self.coordinator.address
        before = service_status(address)["counters"]
        latencies = []
        t0 = time.perf_counter()
        with _span(tracer, "exec.service"):
            cold = []
            for report in api.submit(specs, address):
                latencies.append(time.perf_counter() - t0)
                cold.append(report)
        wall = time.perf_counter() - t0
        after = service_status(address)["counters"]
        t0 = time.perf_counter()
        with _span(tracer, "exec.service.warm"):
            warm = list(api.submit(specs, address))
        warm_wall = time.perf_counter() - t0
        failures = []
        if len(cold) != len(specs) or any(r.cached for r in cold):
            failures.append("service: cold submit was not all executed")
        if len(warm) != len(specs) or not all(r.cached for r in warm):
            failures.append("service: warm resubmit executed tasks")
        by_index = {r.index: r.result.to_json() for r in cold}
        for r in warm:
            if by_index.get(r.index) != r.result.to_json():
                failures.append("service: warm result differs from the cold one")
        busy = sum(w["busy_seconds"] for w in after["per_worker"].values()) \
            - sum(w["busy_seconds"] for w in before["per_worker"].values())
        return OpOutcome(
            "service", wall, 2 * len(specs), failures,
            results={specs[i].config_digest(): text for i, text in by_index.items()},
            extra={"warm_wall": warm_wall, "tasks": len(specs),
                   "latencies": latencies, "busy_seconds": busy,
                   "requeued": after["requeued"] - before["requeued"]})


_CLASSES = {cls.name: cls for cls in
            (GaussWide, MatVerify, WideSync, AdaptChurn, SweepGrid)}


def make_workload(name: str, seed: int, smoke: bool, scratch: str):
    return _CLASSES[name](seed, smoke, scratch)

"""One workload in one fresh interpreter: set-up, timed passes, traced pass.

``run.py`` starts this module's :func:`child_main` in a child process per
measurement.  The child sets the workload up (imports, inputs, scratch
directory, coordinator and workers, one discarded warm-up pass), reports
how long that took, and then either

* times passes for ``--seconds`` with tracing and ``repro.obs`` off
  (``--trace 0``: the end-to-end metrics), or
* runs a few untraced baseline passes, one ``ObsConfig()`` pass, and one
  pass with :class:`~benchmarks.spine.tracer.Tracer` installed
  (``--trace 1``: the per-layer metrics).

Every host time is rescaled to the reference host speed by the
calibration chunks that bracket the operation (``calibrate.py``);
simulated seconds and counts are exact.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from .calibrate import Calibrator, normalised
from .workloads import WORKERS, OpOutcome, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Span name -> (self-time metric, call-count metric) of the layer tables.
SPAN_METRICS = {
    "simcore.loop": ("simcore.loop_s", None),
    "simcore.push": ("simcore.push_s", "simcore.push_calls"),
    "network.transmit": ("network.transmit_s", "network.transmit_calls"),
    "network.flight": ("network.flight_s", None),
    "network.deliver": ("network.deliver_s", "network.deliver_calls"),
    "dsm.notice.apply": ("dsm.notice.apply_s", "dsm.notice.apply_calls"),
    "dsm.notice.unknown": ("dsm.notice.unknown_s", "dsm.notice.unknown_calls"),
    "dsm.interval.close": ("dsm.interval.close_s", "dsm.interval.close_calls"),
    "dsm.interval.lookup": ("dsm.interval.lookup_s", None),
    "dsm.vc.merge": ("dsm.vc.merge_s", "dsm.vc.merge_calls"),
    "dsm.access": ("dsm.access.s", None),
    "dsm.other": ("dsm.other_s", None),
    "dsm.diff.make": ("dsm.diff.make_s", "dsm.diff.make_calls"),
    "dsm.diff.apply": ("dsm.diff.apply_s", "dsm.diff.apply_calls"),
    "apps.body": ("apps.body_s", None),
    "core.host": ("core.host_s", None),
}
#: Spans no layer owns: the scenario roots' own time (building the
#: runtime, converting the result) and simulated processes whose code
#: lives outside the layered packages.  Everything else is attributed.
UNATTRIBUTED_SPANS = ("scenario", "sim.other")

#: Timed passes never number fewer than this, however slow the host.
MIN_PASSES = 3
#: Untraced passes a traced run measures its overheads against.
BASELINE_PASSES = 2


class CalibratedTimer:
    """Brackets each operation with calibration chunks.

    ``samples[kind]`` collects ``(raw seconds, reference-host seconds)``;
    the chunk after one operation is the chunk before the next.  Passes
    that must not mix (baseline, obs-on, traced) each get their own timer.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.last_chunk = calibrator.chunk()
        self.samples: Dict[str, List[tuple]] = {}

    def __call__(self, kind: str, op: Callable[[], OpOutcome]) -> OpOutcome:
        outcome = op()
        outcome.scaled = self.record(kind, outcome.wall)
        return outcome

    def record(self, kind: str, raw: float) -> float:
        chunk = self.calibrator.chunk()
        scaled = normalised(raw, self.last_chunk, chunk)
        self.samples.setdefault(kind, []).append((raw, scaled))
        self.last_chunk = chunk
        return scaled

    def timed(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Time ``fn()`` itself (for operations that are not passes)."""
        t0 = time.perf_counter()
        value = fn()
        self.record(kind, time.perf_counter() - t0)
        return value

    def median(self, kind: str) -> float:
        return statistics.median(s[1] for s in self.samples[kind])

    def total_of_medians(self) -> float:
        """Sum over the operation kinds of each kind's median."""
        return sum(self.median(kind) for kind in self.samples)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


class _Checker:
    """Counts operations and failures; compares results pass to pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Dict[str, str] = {}

    def take(self, outcomes: List[OpOutcome], what: str) -> None:
        for outcome in outcomes:
            self.attempted += outcome.attempted
            self.failures.extend(outcome.failures)
            for key, text in outcome.results.items():
                first = self.reference.setdefault(key, text)
                if first != text:
                    self.failures.append(
                        f"{key}: result of the {what} differs from the first pass")

    def summary(self) -> Dict[str, Any]:
        """Counts, the first failures, and a hash of every distinct result
        (two runs of one seed on one commit must agree on it)."""
        text = json.dumps(sorted(self.reference.items()))
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20],
                "results_sha256": hashlib.sha256(text.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end
# ---------------------------------------------------------------------------
def timed_run(workload, calibrator: Calibrator, seconds: float,
              passes: Optional[int]) -> Dict[str, Any]:
    timer = CalibratedTimer(calibrator)
    checker = _Checker()
    pass_totals: List[float] = []
    sim_s = 0.0
    deadline = time.monotonic() + seconds
    while True:
        gc.collect()
        outcomes = workload.run_pass(timer)
        checker.take(outcomes, "timed pass")
        pass_totals.append(sum(o.scaled for o in outcomes))
        sim_s = sum(r.result.runtime_seconds for o in outcomes for r in o.reports)
        done = len(pass_totals)
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and time.monotonic() >= deadline:
            break
    q1, _, q3 = _quartiles(pass_totals)
    return {
        "wall_s": timer.total_of_medians(),
        "wall_s_pass_quartiles": [q1, statistics.median(pass_totals), q3],
        "raw_wall_s": sum(statistics.median(s[0] for s in v)
                          for v in timer.samples.values()),
        "passes": len(pass_totals),
        "sim_s": sim_s,
        "operations": {kind: {"samples": len(v), "median_s": timer.median(kind)}
                       for kind, v in timer.samples.items()},
        **checker.summary(),
    }


# ---------------------------------------------------------------------------
# --trace 1: per layer
# ---------------------------------------------------------------------------
def traced_run(workload, calibrator: Calibrator, seconds: float,
               passes: Optional[int], declared: List[str]) -> Dict[str, Any]:
    from .tracer import Tracer

    timer = CalibratedTimer(calibrator)
    checker = _Checker()
    baseline: List[List[OpOutcome]] = []
    deadline = time.monotonic() + seconds / 3.0
    wanted = passes if passes is not None else BASELINE_PASSES
    while len(baseline) < wanted or (passes is None and time.monotonic() < deadline):
        gc.collect()
        baseline.append(workload.run_pass(timer))
        checker.take(baseline[-1], "baseline pass")
    base_wall = timer.total_of_medians()

    is_grid = workload.name == "sweep-grid"
    observed: List[OpOutcome] = []
    if not is_grid:
        gc.collect()
        observed = workload.run_pass(CalibratedTimer(calibrator), obs=True)
        checker.take(observed, "obs-on pass")

    # Traced passes: wrappers on, spans in memory, one table per pass.
    tables: List[Dict[str, Dict[str, float]]] = []
    traced_passes: List[List[OpOutcome]] = []
    raw_wall = traced_wall = cpu = 0.0
    deadline = time.monotonic() + seconds / 3.0
    while not tables or (passes is None and time.monotonic() < deadline):
        tracer = Tracer()
        gc.collect()
        traced_timer = CalibratedTimer(calibrator)
        cpu0 = _cpu_seconds()
        tracer.install()
        patched = tracer.patched_attributes()
        try:
            traced = workload.run_pass(traced_timer, tracer=tracer)
        finally:
            tracer.uninstall()
        cpu += _cpu_seconds() - cpu0
        checker.take(traced, "traced pass")
        traced_passes.append(traced)
        for owner, attr in patched:
            if hasattr(getattr(owner, attr), "__wrapped__"):
                checker.failures.append(
                    f"wrapper left installed on {owner.__name__}.{attr}")
        pass_raw = sum(o.wall for o in traced)
        pass_wall = sum(o.scaled for o in traced)
        raw_wall += pass_raw
        traced_wall += pass_wall
        table = tracer.table()
        independent = sum(o.wall + o.extra.get("warm_wall", 0.0) for o in traced)
        spans_sum = sum(row["self_s"] for row in table.values())
        if abs(spans_sum - independent) > 0.02 * independent:
            checker.failures.append(
                f"span self times sum to {spans_sum:.4f} s but the traced pass "
                f"took {independent:.4f} s")
        for row in table.values():  # to reference-host seconds, pass by pass
            row["self_s"] *= pass_wall / pass_raw
            row["total_s"] *= pass_wall / pass_raw
        tables.append(table)
    n = len(tables)
    # Calls repeat exactly; times are the median over the traced passes.
    table = {
        name: {"calls": tables[0][name]["calls"],
               "self_s": statistics.median(t[name]["self_s"] for t in tables),
               "total_s": statistics.median(t[name]["total_s"] for t in tables)}
        for name in tables[0]
    }

    values: Dict[str, float] = {}
    for span, (self_time, calls) in SPAN_METRICS.items():
        row = table.get(span, {"calls": 0, "self_s": 0.0})
        values[self_time] = row["self_s"]
        if calls:
            values[calls] = row["calls"]
    values["dsm.notice.applied"] = tracer.tallies.get("dsm.notice.apply", 0)
    values["dsm.access.calls"] = tracer.tallies.get("dsm.access", 0)
    unattributed = sum(table[name]["self_s"] for name in UNATTRIBUTED_SPANS
                       if name in table)
    values["host.unattributed_s"] = unattributed
    values["host.attributed_share"] = \
        1.0 - unattributed / sum(row["self_s"] for row in table.values())
    values["host.cpu_s"] = cpu / n * traced_wall / raw_wall
    values["host.raw_wall_s"] = raw_wall / n
    values["host.speed_factor"] = traced_wall / raw_wall
    values["trace.overhead_x"] = traced_wall / n / base_wall
    values["trace.spans"] = len(tracer.starts)

    _counts_from_reports(values, baseline[0])
    if observed:
        values["obs.overhead_x"] = sum(o.scaled for o in observed) / base_wall
        _core_from_breakdowns(values, observed)
    extras = CalibratedTimer(calibrator)
    values["simcore.spin_events_per_s"] = _spin_rate(extras)
    if workload.name == "mat-verify":
        _mat_verify_extras(values, workload, calibrator, base_wall)
    if is_grid:
        values["exec.pool.cold_s"] = timer.median("pool")
        values["exec.service.cold_s"] = timer.median("service")
        _grid_extras(values, workload, extras, baseline + traced_passes, table,
                     checker)

    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"per-layer metrics not declared in BENCHMARK.json: {unknown}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w") as fh:
        json.dump(tracer.export(), fh)
    return {
        "per_layer": {name: float(values.get(name, 0.0)) for name in declared},
        "table": table,
        "traced_passes": n,
        "traced_wall_s": traced_wall / n,
        "base_wall_s": base_wall,
        "tile": {"spans_self_s": spans_sum, "pass_wall_s": independent},
        **checker.summary(),
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _counts_from_reports(values: Dict[str, float], outcomes: List[OpOutcome]) -> None:
    """Exact counts and simulated quantities of one untraced pass.

    Scenario workloads read the live runtime; the grid's simulations ran
    in other processes, so only what a result carries is known there.
    """
    from repro.exec.result import ScenarioResult

    results = [r.result for o in outcomes for r in o.reports]
    if not results:
        pool = next(o for o in outcomes if o.kind == "pool")
        service = next(o for o in outcomes if o.kind == "service")
        texts = {**pool.results, **service.results}
        results = [ScenarioResult.from_dict(json.loads(t)) for t in texts.values()]
    values["simcore.events"] = sum(r.events for r in results)
    values["network.messages"] = sum(r.messages for r in results)
    values["network.mb"] = sum(r.bytes for r in results) / 1e6
    values["network.retransmissions"] = sum(r.retransmissions for r in results)
    values["dsm.forks"] = sum(r.forks for r in results)
    values["dsm.diff.count"] = sum(r.diffs for r in results)
    values["core.adaptations"] = sum(r.adaptations for r in results)
    values["core.checkpoints"] = sum(r.checkpoints_taken for r in results)
    values["model.sim_s"] = sum(r.runtime_seconds for r in results)
    records = [rec for r in results for rec in r.adapt_records]
    values["core.adapt.drained_pages"] = sum(r.get("drained_pages", 0) for r in records)
    values["core.adapt.max_link_mb"] = max(
        (r.get("max_link_bytes", 0) for r in records), default=0) / 1e6

    runtimes = [r.experiment.runtime for o in outcomes for r in o.reports]
    if not runtimes:
        return
    values["simcore.ff_phases"] = sum(rt.sim.ff_phases for rt in runtimes)
    values["network.flight_calls"] = sum(rt.switch.flights_compiled for rt in runtimes)
    legs = sum(rt.switch.flight_legs for rt in runtimes)
    values["network.flight_legs"] = legs
    values["network.flight_leg_share"] = legs / max(1, values["network.messages"])
    links = [list(rt.switch.iter_links()) for rt in runtimes]
    values["network.max_link_busy_s"] = sum(
        max(link.busy_time for link in ls) for ls in links)
    values["network.max_link_mb"] = sum(
        max(link.bytes_carried for link in ls) for ls in links) / 1e6
    values["network.master_uplink_busy_s"] = sum(
        rt.switch.uplinks[rt.team.node_of(0)].busy_time for rt in runtimes)
    caches = [rt.space.plan_cache for rt in runtimes]
    lookups = sum(c.hits + c.misses for c in caches)
    values["dsm.plan.lookups"] = lookups
    values["dsm.plan.hit_ratio"] = sum(c.hits for c in caches) / max(1, lookups)
    values["dsm.page.fetches"] = sum(
        r.experiment.run_result.total.page_fetches
        for o in outcomes for r in o.reports)


def _core_from_breakdowns(values: Dict[str, float], observed: List[OpOutcome]) -> None:
    """Simulated adaptation/recovery seconds of the ``ObsConfig()`` pass."""
    breakdowns = [r.cost_breakdown for o in observed for r in o.reports]
    for phase, metric in (("adapt.gc", "core.adapt.gc_s"),
                          ("adapt.migration", "core.adapt.migration_s"),
                          ("adapt.exclusive_fetch", "core.adapt.exclusive_fetch_s"),
                          ("adapt.repartition", "core.adapt.repartition_s"),
                          ("adapt.barrier", "core.adapt.barrier_s"),
                          ("recovery.restore", "core.recovery.restore_s"),
                          ("recovery.rebuild", "core.recovery.rebuild_s")):
        values[metric] = sum(b.phases[phase].seconds for b in breakdowns)
    values["model.sim_adapt_s"] = sum(
        b.adaptation_seconds + b.recovery_seconds for b in breakdowns)


def _spin_rate(timer: CalibratedTimer) -> float:
    """Bare event-loop ceiling: no-op events per reference-host second."""
    from repro.bench.perf import calibrate_spin

    events = 50_000
    scaled = timer.record("spin", events / calibrate_spin(events))
    return events / scaled


def _mat_verify_extras(values, workload, calibrator: Calibrator,
                       base_wall: float) -> None:
    """The plain sequential numpy run of the same problems, and how far
    the model's micro-operations sit from the paper's §5.1 measurements."""
    timer = CalibratedTimer(calibrator)
    for sc in workload.scenarios:
        timer.timed(sc.kind, sc.spec.build_app().reference)
    reference = timer.total_of_medians()
    values["apps.reference_s"] = reference
    values["apps.dsm_overhead_x"] = base_wall / reference
    values["model.err_pct"] = 100.0 * _micro_error()


def _micro_error() -> float:
    """Max relative error of the §5.1 micro-measurements, re-measured with
    the programs ``benchmarks/test_micro_network.py`` already builds."""
    from benchmarks import test_micro_network as micro
    from repro.bench.paper_data import MICRO

    got = micro.measure_page_and_diffs()
    errors = [
        abs(micro.measure_rtt() - MICRO.rtt_1byte) / MICRO.rtt_1byte,
        abs(got["page"] - MICRO.page_transfer) / MICRO.page_transfer,
        abs(got["diff_small"] - MICRO.diff_min) / MICRO.diff_min,
        abs(got["diff_full"] - MICRO.diff_max) / MICRO.diff_max,
    ]
    lock = micro.measure_lock()
    nearest = min(max(lock, MICRO.lock_min), MICRO.lock_max)
    errors.append(abs(lock - nearest) / nearest)
    return max(errors)


def _grid_extras(values, workload, timer: CalibratedTimer,
                 passes: List[List[OpOutcome]], table, checker: _Checker) -> None:
    """Pool and service overheads over the serial sum of the same tasks."""
    import repro.api as api

    pool = [o for p in passes for o in p if o.kind == "pool"]
    service = [o for p in passes for o in p if o.kind == "service"]
    pool_tasks = pool[0].extra["tasks"]
    tasks = service[0].extra["tasks"]
    values["exec.tasks"] = pool_tasks + tasks

    # The work itself: the traced pass's grid, serially, in this process.
    specs = workload.last_grid
    serial = timer.timed("serial", lambda: api.sweep(specs, jobs=1))
    raw, scaled = timer.samples["serial"][-1]
    serial_walls = [o.wall_seconds * scaled / raw for o in serial.outcomes]
    serial_sum = sum(serial_walls)
    pool_serial = sum(serial_walls[:pool_tasks])
    served = service[-1].results
    for spec, outcome in zip(specs, serial.outcomes):
        checker.attempted += 1
        if served.get(spec.config_digest()) != outcome.result.to_json():
            checker.failures.append(
                f"serial result of {spec.display_name} differs from the service's")

    pool_wall = values["exec.pool.cold_s"]
    service_wall = values["exec.service.cold_s"]
    values["exec.serial_sum_s"] = serial_sum
    values["exec.pool.overhead_ms_per_task"] = \
        1e3 * (pool_wall * WORKERS - pool_serial) / pool_tasks
    values["exec.pool.speedup_x"] = pool_serial / pool_wall
    values["exec.retries"] = sum(o.extra["retried"] for o in pool)
    values["exec.cache.warm_ms_per_task"] = 1e3 * statistics.median(
        o.extra["warm_wall"] * o.scaled / o.wall for o in pool) / pool_tasks
    values["exec.cache.hit_ratio"] = pool[0].extra["hits"] / max(
        1, pool[0].extra["hits"] + pool[0].extra["misses"])
    for span, metric, unit in (("exec.cache.put", "exec.cache.put_ms", 1e3),
                               ("exec.cache.get", "exec.cache.get_ms", 1e3),
                               ("exec.spec.digest", "exec.spec.digest_us", 1e6)):
        row = table.get(span)
        if row and row["calls"]:
            values[metric] = unit * row["total_s"] / row["calls"]
    values["exec.service.overhead_ms_per_task"] = \
        1e3 * (service_wall * WORKERS - serial_sum) / tasks
    latencies = sorted(1e3 * l * o.scaled / o.wall for o in service
                       for l in o.extra["latencies"])
    values["exec.service.task_p50_ms"] = latencies[len(latencies) // 2]
    values["exec.service.task_p90_ms"] = latencies[(len(latencies) * 9) // 10]
    values["exec.service.warm_ms_per_task"] = 1e3 * statistics.median(
        o.extra["warm_wall"] * o.scaled / o.wall for o in service) / tasks
    values["exec.service.worker_busy_share"] = statistics.median(
        o.extra["busy_seconds"] / (WORKERS * o.wall) for o in service)
    values["exec.service.requeued"] = sum(o.extra["requeued"] for o in service)
    values["exec.wire.roundtrip_us"] = _wire_roundtrip_us(timer, serial.results[0])


def _wire_roundtrip_us(timer: CalibratedTimer, result) -> float:
    """``send_message``/``recv_message`` of a result-sized frame and a
    small acknowledgement over a socketpair."""
    import socket

    from repro.exec.wire import message, recv_message, send_message

    frame = message("result", task_id="t1", digest="0" * 64,
                    result=result.to_dict(), wall_seconds=0.1, attempts=1,
                    failure_counts={})
    ack = message("heartbeat")
    rounds = 300
    a, b = socket.socketpair()

    def loop() -> None:
        for _ in range(rounds):
            send_message(a, frame)
            recv_message(b)
            send_message(b, ack)
            recv_message(a)

    try:
        timer.timed("wire", loop)
    finally:
        a.close()
        b.close()
    return 1e6 * timer.median("wire") / rounds


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------
def child_main(workload_name: str, seed: int, seconds: float, trace: bool,
               smoke: bool, passes: Optional[int], spawned_at: float,
               chunk_before: float, setup_only: bool,
               declared: List[str]) -> Dict[str, Any]:
    """Set one workload up, measure it, tear it down; returns the report."""
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = None
    try:
        workload = make_workload(workload_name, seed, smoke, scratch)
        workload.warm_up()
        ready_at = time.monotonic()
        calibrator = Calibrator()
        raw = ready_at - spawned_at
        report: Dict[str, Any] = {
            "workload": workload_name, "seed": seed,
            "setup_raw_s": raw,
            "setup_s": normalised(raw, chunk_before, calibrator.chunk()),
        }
        if setup_only:
            return report
        if trace:
            report.update(traced_run(workload, calibrator, seconds, passes, declared))
        else:
            report.update(timed_run(workload, calibrator, seconds, passes))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux
    return report

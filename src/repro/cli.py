"""Command-line interface: run kernels and regenerate paper experiments.

::

    python -m repro list                      # workloads & presets
    python -m repro calibrate                 # show Table-1-derived rates
    python -m repro run jacobi --nprocs 8 --adaptive \
        --event leave:0.5:3 --event join:1.5:3
    python -m repro table1                    # regenerate Table 1
    python -m repro sweep --jobs 4            # app x nodes grid, parallel + cached
    python -m repro report jacobi --nprocs 8 \
        --event leave:0.5:3 --trace trace.json  # adaptation-cost breakdown
    python -m repro chaos --kill-rate 0.5     # fault-injection harness
    python -m repro micro                     # §5.1 micro-benchmarks
    python -m repro fig3                      # Figure 3 analytic fractions
    python -m repro migration                 # §5.3 migration cost model

Every simulation the CLI starts goes through :mod:`repro.api` — the same
facade user scripts should call.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import APP_NAMES, BENCH, PAPER, TINY
from .bench.calibrate import calibrated_rates
from .bench.paper_data import FIGURE3_MOVED, MICRO, MIGRATION_COST, TABLE1
from .bench.reporting import format_table
from .core import CompactShift, SwapLast, moved_fraction
from .errors import ExecError, ReproError

PRESETS = {"paper": PAPER, "bench": BENCH, "tiny": TINY}


def _parse_event(spec: str):
    """``action:time[:node]`` -> (action, time, node)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or parts[0] not in ("join", "leave", "crash"):
        raise argparse.ArgumentTypeError(
            f"bad event {spec!r}; expected join:TIME[:NODE], leave:TIME[:NODE] "
            f"or crash:TIME[:NODE]"
        )
    action = parts[0]
    time = float(parts[1])
    node = int(parts[2]) if len(parts) == 3 else None
    return action, time, node


def cmd_list(args) -> int:
    rows = []
    for preset_name, preset in PRESETS.items():
        for app_name, wl in preset.items():
            app = wl.make()
            if app_name == "fft3d":
                desc = f"{app.nx}x{app.ny}x{app.nz}, {app.iterations} iters"
            elif app_name == "nbf":
                desc = f"{app.natoms} atoms x {app.npartners}, {app.iterations} iters"
            else:
                desc = f"n={app.n}, {app.iterations} iters"
            rows.append([preset_name, app_name, desc])
    print(format_table(["preset", "kernel", "configuration"], rows,
                       title="Available workloads"))
    return 0


def cmd_calibrate(args) -> int:
    rows = [
        [name, f"{rate * 1e9:.2f}", TABLE1[(name, 1)].time_standard]
        for name, rate in sorted(calibrated_rates().items())
    ]
    print(format_table(
        ["kernel", "rate (ns/op)", "anchors to 1-node time (s)"],
        rows,
        title="Compute rates calibrated against Table 1's 1-node column",
    ))
    return 0


def _spec_from_args(args):
    """Build the :class:`~repro.api.ScenarioSpec` the run/report commands
    describe.  Prints the problem and returns None on bad input."""
    from .api import AdaptEvent, spec_from_preset

    if args.app not in APP_NAMES:
        print(f"unknown app {args.app!r}; one of {', '.join(APP_NAMES)}",
              file=sys.stderr)
        return None
    fault_plan = None
    if args.faults:
        from .errors import FaultError
        from .faults import parse_plan

        try:
            with open(args.faults) as fh:
                fault_plan = fh.read()
            parse_plan(fault_plan)
        except (FaultError, OSError) as err:
            print(f"bad fault plan {args.faults!r}: {err}", file=sys.stderr)
            return None
    events = tuple(
        AdaptEvent(action, time, node,
                   grace=args.grace if action == "leave" else None)
        for action, time, node in args.event or []
    )
    return spec_from_preset(
        args.preset, args.app, args.nprocs,
        calibrated=False,  # the run command uses the preset's stock rates
        adaptive=args.adaptive,
        materialized=args.materialized,
        extra_nodes=args.extra_nodes,
        events=events,
        fault_plan=fault_plan,
        checkpoint_interval=args.checkpoint_interval,
        failure_detection=args.failure_detection,
        label=f"{args.app}-{args.nprocs}",
    )


def cmd_run(args) -> int:
    from .api import run as api_run

    spec = _spec_from_args(args)
    if spec is None:
        return 2
    report = api_run(spec)
    res = report.experiment
    detection = spec.failure_detection or spec.has_crashes
    rows = [
        ["simulated runtime (s)", f"{res.runtime_seconds:.3f}"],
        ["page fetches", res.pages],
        ["diffs fetched", res.diffs],
        ["messages", res.messages],
        ["traffic (MB)", f"{res.megabytes:.2f}"],
        ["fork/join constructs", res.forks],
        ["adapt events", res.adaptations],
    ]
    if res.dropped or res.retransmissions:
        rows.append(["messages dropped", res.dropped])
        rows.append(["retransmissions", res.retransmissions])
    if detection:
        rows.append(["heartbeats sent", res.heartbeats_sent])
        rows.append(["heartbeat misses", res.heartbeat_misses])
        rows.append(["false suspicions", res.false_suspicions])
        rows.append(["crash recoveries", len(res.recoveries)])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app} ({args.preset} preset) on {args.nprocs} nodes"))
    for rec in res.adapt_records:
        print(f"  t={rec.time:.3f}s joins={rec.joins} leaves={rec.leaves} "
              f"urgent={rec.urgent_leaves} team {rec.nprocs_before}->"
              f"{rec.nprocs_after} cost={rec.duration * 1e3:.1f}ms")
    for rec in res.recoveries:
        ckpt = "cold restart" if rec.checkpoint_time is None else (
            f"checkpoint t={rec.checkpoint_time:.3f}s"
        )
        print(f"  recovery t={rec.time:.3f}s nodes={rec.crashed_nodes} "
              f"({rec.reason}) detect={rec.detection_latency * 1e3:.0f}ms "
              f"restore={rec.restore_seconds:.3f}s "
              f"lost={rec.lost_work_seconds:.3f}s from {ckpt}")
    if args.materialized:
        ok = report.result.verified
        if ok is None:
            print("  verification unavailable")
        else:
            print(f"  verification vs sequential reference: {'OK' if ok else 'MISMATCH'}")
            if not ok:
                return 1
    return 0


def _report_from_digest(args) -> int:
    """Render the adaptation-cost table for a cached sweep digest."""
    import json
    from pathlib import Path

    root = Path(args.cache_dir)
    matches = sorted(root.glob(f"{args.digest}*.json"))
    if not matches:
        print(f"no cache entry matching digest {args.digest!r} under {root}",
              file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"digest prefix {args.digest!r} is ambiguous "
              f"({len(matches)} entries); give more characters", file=sys.stderr)
        return 2
    with open(matches[0]) as fh:
        entry = json.load(fh)
    result = entry.get("result", {})
    label = entry.get("spec", {}).get("kernel", "?")
    nprocs = entry.get("spec", {}).get("nprocs", "?")
    records = result.get("adapt_records", [])
    rows = []
    total = 0.0
    for rec in records:
        duration = rec.get("duration", 0.0)
        total += duration
        rows.append([
            f"{rec.get('time', 0.0):.3f}",
            len(rec.get("joins", [])),
            len(rec.get("leaves", [])) + len(rec.get("urgent_leaves", [])),
            f"{rec.get('nprocs_before', '?')}->{rec.get('nprocs_after', '?')}",
            rec.get("drained_pages", 0),
            f"{duration * 1e3:.1f}",
        ])
    rows.append(["total", "", "", "", "", f"{total * 1e3:.1f}"])
    print(format_table(
        ["t (s)", "joins", "leaves", "team", "drained pages", "cost (ms)"],
        rows,
        title=f"Cached adaptation costs: {label}-{nprocs} "
              f"(digest {entry.get('digest', '?')[:12]})",
    ))
    print(f"  simulated runtime {result.get('runtime_seconds', 0.0):.3f}s, "
          f"{result.get('adaptations', 0)} adapt event(s), "
          f"{len(result.get('recoveries', []))} recover(ies)")
    return 0


def _report_from_sweep(args) -> int:
    """Render the failure/retry/cache counters of a sweep JSON file."""
    import json

    try:
        with open(args.sweep) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read sweep file {args.sweep!r}: {err}", file=sys.stderr)
        return 2
    if payload.get("schema") != "repro-sweep/1":
        print(f"{args.sweep}: not a repro-sweep/1 file", file=sys.stderr)
        return 2
    rows = [
        ["scenarios", len(payload.get("scenarios", []))],
        ["executed", payload.get("executed", 0)],
        ["retried", payload.get("retried", 0)],
        ["degraded to serial", "yes" if payload.get("degraded") else "no"],
    ]
    for kind, n in sorted(payload.get("failures", {}).items()):
        rows.append([f"failures: {kind}", n])
    for key, value in sorted(payload.get("cache", {}).items()):
        rows.append([f"cache {key}", value])
    service = payload.get("service") or {}
    for key in ("submitted", "executed", "cache_hits", "deduped",
                "requeued", "failed", "inflight_peak", "workers",
                "workers_joined", "workers_lost"):
        if key in service:
            rows.append([f"exec.service.{key}", service[key]])
    for kind, n in sorted(service.get("failure_counts", {}).items()):
        rows.append([f"exec.service.failure.{kind}", n])
    for wid, info in sorted(service.get("per_worker", {}).items()):
        rows.append([
            f"exec.service.worker.{wid}",
            f"{info.get('tasks', 0):.0f} task(s) in "
            f"{info.get('busy_seconds', 0.0):.2f}s busy",
        ])
    print(format_table(
        ["metric", "value"], rows,
        title=f"Sweep resilience report: {args.sweep}",
    ))
    return 0


def _report_from_scale(args) -> int:
    """Render the scaling-sweep table of a ``repro scale`` JSON file."""
    import json

    from .bench.scale import SCALE_SCHEMA, format_scale_table, load_scale_report

    try:
        report = load_scale_report(args.scale)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read scale file {args.scale!r}: {err}", file=sys.stderr)
        return 2
    if report.get("schema") != SCALE_SCHEMA:
        print(f"{args.scale}: not a {SCALE_SCHEMA} file", file=sys.stderr)
        return 2
    print(f"Scaling sweep: {args.scale} (created {report.get('created')})")
    print(format_scale_table(report))
    return 0


def cmd_report(args) -> int:
    """Run one observed scenario and print the §5 cost decomposition."""
    if args.scale:
        return _report_from_scale(args)
    if args.sweep:
        return _report_from_sweep(args)
    if args.digest:
        return _report_from_digest(args)
    if not args.app:
        print("report needs a kernel name (or --digest DIGEST / --sweep FILE)",
              file=sys.stderr)
        return 2
    from .api import ObsConfig, run as api_run

    spec = _spec_from_args(args)
    if spec is None:
        return 2
    report = api_run(spec, obs=ObsConfig(
        trace_path=args.trace, metrics_path=args.metrics,
    ))
    bd = report.cost_breakdown
    print(format_table(
        ["phase", "seconds", "share"],
        bd.rows(),
        title=f"Adaptation cost breakdown: {spec.display_name} "
              f"({args.preset} preset)",
    ))
    harness = sum(r.duration for r in report.experiment.adapt_records)
    consistent = bd.consistent() and abs(harness - bd.adaptation_seconds) <= 1e-9
    print(f"  {bd.adaptation_points} adaptation point(s); phase sum "
          f"{'matches' if consistent else 'DOES NOT match'} the harness "
          f"adaptation time ({harness:.6f}s)")
    if bd.recovery_seconds:
        print(f"  crash recovery: {bd.recovery_seconds:.6f}s "
              f"(restore {bd.phases['recovery.restore'].seconds:.6f}s)")
    interesting = {
        "adapt.drained_pages": "exclusive pages drained",
        "adapt.leaver_owned_pages": "leaver-owned pages",
        "adapt.page_map_bytes": "page-location-map bytes shipped",
        "migration.image_bytes": "migration image bytes",
        "dsm.diff.created": "diffs encoded",
        "dsm.diff.fetched": "diffs fetched and applied",
        "dsm.diff.bytes": "dirty bytes applied from diffs",
        "dsm.diff.squashes": "fetches that applied several diffs of a page",
    }
    for key, desc in interesting.items():
        if bd.counters.get(key):
            print(f"  {desc}: {bd.counters[key]:.0f}")
    if args.trace:
        print(f"  Chrome trace written to {args.trace} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics:
        print(f"  metrics written to {args.metrics}")
    return 0 if consistent else 1


def _sweep_from_args(args, specs, jobs_default=None, progress=None):
    """Run ``specs`` where the shared engine flags say: on the workers of
    ``--coordinator HOST:PORT`` when given (its cache, its policy), else
    on this host through :func:`repro.api.sweep`."""
    if args.coordinator:
        from .exec.service import submit_outcome

        outcome = submit_outcome(
            specs, args.coordinator, no_cache=args.no_cache,
            refresh=args.refresh, progress=progress)
        if outcome.degraded:
            raise ExecError(
                f"the coordinator at {args.coordinator} degraded and "
                f"handed scenarios back unexecuted")
        return outcome
    from .api import sweep
    from .exec.cache import ResultCache

    return sweep(
        specs,
        jobs=args.jobs if args.jobs is not None else jobs_default,
        cache=None if args.no_cache else ResultCache(root=args.cache_dir),
        refresh=args.refresh,
        progress=progress,
    )


def _via(task) -> str:
    """How a task was satisfied: ``cache``, ``deduped``, or the wall
    seconds of its run (after the worker id, for a remote one)."""
    if task.cached:
        return "cache"
    if task.deduped:
        return "deduped"
    return f"{task.worker_id} {task.wall_seconds:.2f}s".lstrip()


def _progress(outcome, done, total):
    """The engine progress callback: one line per task on stderr."""
    how = _via(outcome)
    if outcome.attempts > 1:
        how += f" after {outcome.attempts} attempts"
    print(f"  [{done}/{total}] {outcome.spec.display_name}: {how}",
          file=sys.stderr)


def _sweep_summary(outcome) -> str:
    s = outcome.cache_stats
    line = (f"{len(outcome.outcomes)} scenario(s): {outcome.cache_hits} from "
            f"cache, {outcome.executed} executed ({outcome.retried} retried) "
            f"on {outcome.jobs} job(s) in {outcome.wall_seconds:.2f}s "
            f"[cache hits={s.hits} misses={s.misses} "
            f"invalidations={s.invalidations} stores={s.stores}]")
    if s.quarantined:
        line += f" [quarantined={s.quarantined}]"
    if outcome.failure_counts:
        kinds = " ".join(f"{k}={v}"
                         for k, v in sorted(outcome.failure_counts.items()))
        line += f" [failures: {kinds}]"
    if outcome.degraded:
        line += " [DEGRADED to serial execution]"
    if outcome.service:
        sv = outcome.service
        line += (f" [service: workers={sv.get('workers', 0)} "
                 f"deduped={sv.get('deduped', 0)} "
                 f"requeued={sv.get('requeued', 0)}]")
    return line


def cmd_table1(args) -> int:
    from .api import spec_from_preset

    grid = [(app, nprocs) for app in APP_NAMES for nprocs in (8, 4, 1)]
    specs = [
        spec_from_preset("bench", app, nprocs, calibrated=True,
                         label=f"{app}-{nprocs}")
        for app, nprocs in grid
    ]
    outcome = _sweep_from_args(args, specs, jobs_default=1,
                               progress=_progress)
    rows = []
    for (app, nprocs), res in zip(grid, outcome.results):
        paper = TABLE1[(app, nprocs)]
        rows.append([
            app, nprocs, f"{res.runtime_seconds:.2f}", res.pages,
            f"{res.megabytes:.1f}", res.messages, res.diffs,
            paper.time_standard, paper.diffs,
        ])
    print(format_table(
        ["app", "nodes", "t(s)", "pages", "MB", "messages", "diffs",
         "paper t(s)", "paper diffs"],
        rows,
        title="Table 1 (scaled workloads, standard system)",
    ))
    print(f"  {_sweep_summary(outcome)}", file=sys.stderr)
    return 0


def _grid_specs(args):
    """The app x nodes spec grid ``--apps``/``--nodes``/``--preset``
    describe, or None on bad input (problem printed)."""
    from .api import spec_from_preset

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    for app in apps:
        if app not in APP_NAMES:
            print(f"unknown app {app!r}; one of {', '.join(APP_NAMES)}",
                  file=sys.stderr)
            return None
    try:
        nodes = [int(v) for v in args.nodes.split(",") if v.strip()]
    except ValueError:
        print(f"bad --nodes {args.nodes!r}; expected e.g. 1,4,8", file=sys.stderr)
        return None
    grid = [(app, nprocs) for app in apps for nprocs in nodes]
    specs = [
        spec_from_preset(args.preset, app, nprocs,
                         calibrated=not args.uncalibrated,
                         label=f"{app}-{nprocs}")
        for app, nprocs in grid
    ]
    return grid, specs


def cmd_sweep(args) -> int:
    """``repro sweep``, and ``repro submit`` (the same command with
    ``--coordinator`` defaulting to the local service port)."""
    built = _grid_specs(args)
    if built is None:
        return 2
    grid, specs = built
    outcome = _sweep_from_args(args, specs, progress=_progress)
    rows = [
        [app, nprocs, f"{res.runtime_seconds:.2f}", res.pages,
         f"{res.megabytes:.1f}", res.messages, res.diffs, _via(task)]
        for (app, nprocs), task, res in zip(
            grid, outcome.outcomes, outcome.results)
    ]
    print(format_table(
        ["app", "nodes", "t(s)", "pages", "MB", "messages", "diffs", "via"],
        rows,
        title=f"Scenario sweep ({args.preset} preset, "
              f"{'stock' if args.uncalibrated else 'calibrated'} rates)",
    ))
    print(f"  {_sweep_summary(outcome)}", file=sys.stderr)
    if args.timeline:
        from .obs.export import pool_utilization, write_pool_trace

        write_pool_trace(outcome, args.timeline)
        print(f"  pool timeline written to {args.timeline} "
              f"(worker utilization {pool_utilization(outcome):.0%})",
              file=sys.stderr)
    if args.json:
        import json as _json

        payload = {
            "schema": "repro-sweep/1",
            "preset": args.preset,
            "jobs": outcome.jobs,
            "cache": outcome.cache_stats.as_dict(),
            "executed": outcome.executed,
            "retried": outcome.retried,
            "failures": dict(sorted(outcome.failure_counts.items())),
            "degraded": outcome.degraded,
            "service": outcome.service,
            "scenarios": [
                {
                    "spec": task.spec.canonical_dict(),
                    "digest": task.spec.config_digest(),
                    "label": task.spec.display_name,
                    "cached": task.cached,
                    "deduped": task.deduped,
                    "worker": task.worker_id,
                    "result": task.result.to_dict(),
                }
                for task in outcome.outcomes
            ],
        }
        with open(args.json, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  sweep JSON written to {args.json}", file=sys.stderr)
    return 0


def cmd_micro(args) -> int:
    rows = [
        ["1-byte round trip (us)", 126.2, MICRO.rtt_1byte * 1e6],
        ["lock acquisition (us)", 180.6, f"{MICRO.lock_min*1e6:.0f}-{MICRO.lock_max*1e6:.0f}"],
        ["page transfer (us)", 1309.3, MICRO.page_transfer * 1e6],
        ["diff fetch (us)", "315.8-1547.4", f"{MICRO.diff_min*1e6:.0f}-{MICRO.diff_max*1e6:.0f}"],
    ]
    print(format_table(["operation", "simulated", "paper"], rows,
                       title="§5.1 micro-benchmarks (see benchmarks/test_micro_network.py)"))
    return 0


def cmd_fig3(args) -> int:
    rows = []
    for n in (8, 6, 4):
        for label, leaver in (("end", n - 1), ("middle", n // 2)):
            for strategy in (CompactShift(), SwapLast()):
                frac = float(moved_fraction(n, [leaver], strategy))
                rows.append([n, label, leaver, strategy.name, f"{frac:.3f}"])
    print(format_table(
        ["procs", "leaver", "pid", "strategy", "moved fraction"],
        rows,
        title=f"Figure 3 analytic data movement (paper: end {FIGURE3_MOVED['end']}, "
              f"middle {FIGURE3_MOVED['middle']})",
    ))
    return 0


def cmd_migration(args) -> int:
    from .cluster import NodePool
    from .config import SystemConfig
    from .dsm import TmkRuntime
    from .network import Switch
    from .simcore import Simulator

    cfg = SystemConfig()
    rows = []
    for app_name in APP_NAMES:
        sim = Simulator()
        pool = NodePool(sim, Switch(sim, cfg.network))
        rt = TmkRuntime(sim, cfg, pool.add_nodes(1), materialized=False)
        PAPER[app_name].make().allocate(rt)
        image = rt.space.total_pages * cfg.dsm.page_size + cfg.migration.image_overhead_bytes
        copy = cfg.migration.copy_time(image)
        rows.append([
            app_name, f"{image / 1e6:.1f}",
            f"{cfg.migration.spawn_time_min + copy:.2f}-{cfg.migration.spawn_time_max + copy:.2f}",
            MIGRATION_COST[app_name],
        ])
    print(format_table(
        ["app", "image (MB)", "model cost (s)", "paper (s)"],
        rows,
        title="§5.3 direct migration cost (spawn 0.6-0.8s + image at 8.1 MB/s)",
    ))
    return 0


def cmd_scale(args) -> int:
    """Scaling sweep: flat vs tree sync, star vs fat-tree, several sizes."""
    from .bench.scale import (
        DEFAULT_NODES,
        format_scale_table,
        run_scale,
        write_scale_report,
    )

    if args.nodes:
        try:
            nodes = [int(v) for v in args.nodes.split(",") if v.strip()]
        except ValueError:
            print(f"bad --nodes {args.nodes!r}; expected e.g. 8,32,128",
                  file=sys.stderr)
            return 2
    else:
        nodes = list(DEFAULT_NODES) if not args.quick else [8, 32]
    report = run_scale(nodes=nodes, quick=args.quick)
    print(format_scale_table(report))
    if args.out:
        write_scale_report(report, args.out)
        print(f"\n  report written to {args.out}")
    return 0


def cmd_chaos(args) -> int:
    """Seeded fault injection against the execution engine.

    Runs a fault-free baseline, replays the same specs under a chaos
    plan (worker kills/hangs/slowdowns), then corrupts warm-cache
    entries and sweeps again — asserting bitwise identity throughout.
    Exit 0 means the engine absorbed every injected fault; a structured,
    attributed failure report and exit 1 mean it (correctly) gave up.
    """
    from pathlib import Path

    from .api import spec_from_preset
    from .exec.chaos import ChaosPlan, run_chaos
    from .exec.supervisor import DeadlinePolicy, RetryPolicy, SupervisorPolicy

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    for app in apps:
        if app not in APP_NAMES:
            print(f"unknown app {app!r}; one of {', '.join(APP_NAMES)}",
                  file=sys.stderr)
            return 2
    try:
        nodes = [int(v) for v in args.nodes.split(",") if v.strip()]
    except ValueError:
        print(f"bad --nodes {args.nodes!r}; expected e.g. 1,4,8", file=sys.stderr)
        return 2
    specs = [
        spec_from_preset(args.preset, app, nprocs, calibrated=True,
                         seed=9000 + k, label=f"{app}-{nprocs}-chaos{k}")
        for app in apps for nprocs in nodes
        for k in range(max(1, args.scenarios))
    ]
    plan = ChaosPlan(
        seed=args.seed, kill_rate=args.kill_rate, hang_rate=args.hang_rate,
        slow_rate=args.slow_rate, hang_seconds=args.hang_seconds,
    )
    supervisor = SupervisorPolicy(
        retry=RetryPolicy(max_attempts=args.retries + 1, seed=args.seed),
        deadline=DeadlinePolicy(floor_seconds=args.deadline_floor),
        degrade_after=args.degrade_after,
    )
    # the chaos cache is scratch state: start from a clean slate so the
    # injected faults actually execute instead of hitting warm entries
    cache_root = Path(args.cache_dir)
    for stale in cache_root.glob("*.json"):
        stale.unlink()
    quarantine = cache_root / "quarantine"
    if quarantine.is_dir():
        for stale in quarantine.iterdir():
            stale.unlink()
    try:
        report = run_chaos(
            specs, plan, cache_root, jobs=args.jobs, corrupt=args.corrupt,
            supervisor=supervisor, progress=_progress,
        )
    except ReproError as err:
        kind = getattr(err, "kind", "error")
        print(f"chaos run failed [{kind}]: {err}", file=sys.stderr)
        digest = getattr(err, "digest", "")
        if digest:
            print(f"  task digest {digest[:12]}, "
                  f"attempts {getattr(err, 'attempts', '?')}", file=sys.stderr)
        return 1
    chaos, corruption = report["chaos"], report["corruption"]
    rows = [
        ["scenarios", report["scenarios"]],
        ["jobs", report["jobs"]],
        ["bitwise identical to fault-free", "yes"],
        ["chaos sweep: executed", chaos["executed"]],
        ["chaos sweep: retried", chaos["retried"]],
        ["chaos sweep: degraded to serial",
         "yes" if chaos["degraded"] else "no"],
    ]
    for kind, n in sorted(chaos["failure_counts"].items()):
        rows.append([f"chaos sweep: {kind}", n])
    rows += [
        ["cache entries corrupted", len(corruption["damaged"])],
        ["quarantined", corruption["quarantined"]],
        ["re-executed after corruption", corruption["re_executed"]],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"Chaos harness (seed {plan.seed}, kill {plan.kill_rate:.0%}, "
              f"hang {plan.hang_rate:.0%}, slow {plan.slow_rate:.0%})",
    ))
    if corruption["quarantine_files"]:
        print(f"  quarantine ({corruption['quarantine_dir']}): "
              + ", ".join(corruption["quarantine_files"]), file=sys.stderr)
    if args.json:
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  chaos report written to {args.json}", file=sys.stderr)
    return 0


def cmd_recovery(args) -> int:
    from functools import partial

    from .bench import recovery_sweep, sweep_rows

    intervals = [None] + [float(v) for v in (args.intervals or "0.1,0.2,0.4").split(",")]
    points = recovery_sweep(
        intervals=intervals,
        nprocs=args.nprocs,
        crash_fraction=args.crash_fraction,
        sweep=partial(_sweep_from_args, args, jobs_default=1),
    )
    print(format_table(
        ["interval (s)", "t (s)", "overhead (s)", "ckpts", "detect (ms)",
         "restore (s)", "lost (s)", "verify"],
        sweep_rows(points),
        title=f"Jacobi crash-recovery cost vs. checkpoint interval "
              f"({args.nprocs} nodes, crash at {args.crash_fraction:.0%} of run)",
    ))
    return 0 if all(p.verified in (True, None) for p in points) else 1


# ---------------------------------------------------------------------------
# the distributed sweep service (docs/SERVICE.md)
# ---------------------------------------------------------------------------
def cmd_serve(args) -> int:
    """Run a sweep-service coordinator in the foreground."""
    if args.stop:
        from .exec.service import stop_service

        address = args.coordinator or f"{args.host}:{args.port}"
        try:
            stop_service(address)
        except ExecError as err:
            print(f"cannot stop coordinator at {address}: {err}",
                  file=sys.stderr)
            return 2
        print(f"coordinator at {address} stopped")
        return 0
    from .api import serve

    try:
        coordinator = serve(
            args.host, args.port,
            cache_dir=None if args.no_cache else args.cache_dir,
            no_cache=args.no_cache,
            max_attempts=args.max_attempts,
        )
    except (ReproError, OSError) as err:
        print(f"cannot start coordinator: {err}", file=sys.stderr)
        return 2
    cache_desc = "off" if args.no_cache else args.cache_dir
    print(f"coordinator listening on {coordinator.address} "
          f"(cache: {cache_desc}); submit with `repro submit --coordinator "
          f"{coordinator.address}`, add workers with `repro workers "
          f"--coordinator {coordinator.address}`", file=sys.stderr)
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    return 0


def cmd_workers(args) -> int:
    """Run service workers against a coordinator (or show its table)."""
    address = args.coordinator
    if args.status:
        from .exec.service import service_status

        try:
            status = service_status(address)
        except ExecError as err:
            print(f"cannot reach coordinator at {address}: {err}",
                  file=sys.stderr)
            return 2
        rows = [
            [w["id"], w["host"], w["pid"], w["busy"], w["tasks_done"]]
            for w in status["workers"]
        ] or [["(none)", "", "", "", ""]]
        print(format_table(
            ["worker", "host", "pid", "busy", "tasks done"],
            rows, title=f"Workers registered at {address}",
        ))
        counters = status["counters"]
        print("  " + " ".join(
            f"{key}={counters.get(key, 0)}"
            for key in ("submitted", "executed", "cache_hits", "deduped",
                        "requeued", "failed", "queued", "inflight")))
        return 0
    from .exec.worker import worker_main

    if args.jobs is not None:
        print("repro workers runs one simulation per worker process; "
              "use --count N for N of them (--jobs has no meaning here)",
              file=sys.stderr)
        return 2
    count = max(1, args.count)
    print(f"starting {count} worker(s) against {address}", file=sys.stderr)
    if count == 1:
        try:
            worker_main(address)
        except ExecError as err:
            print(f"worker failed: {err}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            pass
        return 0
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    procs = [
        ctx.Process(target=worker_main, args=(address,))
        for _ in range(count)
    ]
    for proc in procs:
        proc.start()
    try:
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
    return 0


def _engine_parent(coordinator: Optional[str] = None) -> argparse.ArgumentParser:
    """An argparse parent carrying the execution-engine flags.

    Every engine-driven command (``sweep``/``table1``/``recovery``/
    ``serve``/``submit``/``workers``) accepts the same
    ``--jobs``/``--no-cache``/``--refresh``/``--cache-dir``/
    ``--coordinator`` set; ``coordinator`` is the default address of the
    commands that always talk to a service.  ``workers`` reads only
    ``--coordinator`` of them: a worker keeps no cache (every task it is
    handed is a coordinator-side miss or a forced re-run) and refuses
    ``--jobs``.  ``--jobs`` always parses as
    None; commands that are serial by default (``table1``/``recovery``)
    resolve None -> 1 in their command functions, because a
    per-subparser ``set_defaults(jobs=...)`` would mutate the shared
    parent action and leak into every other command.
    """
    from .config import EXEC_CACHE_DIR

    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("execution engine")
    g.add_argument("--jobs", type=int, default=None,
                   help="executors of the scenario engine: this process "
                        "and N-1 spawned workers (default: command-"
                        "specific; unset means one per core; 1, or a "
                        "single cache miss, runs serially in this "
                        "process, unsupervised)")
    g.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed result cache")
    g.add_argument("--refresh", action="store_true",
                   help="re-execute and re-store even on a warm cache")
    g.add_argument("--cache-dir", default=EXEC_CACHE_DIR,
                   help="result-cache directory (default: %(default)s)")
    g.add_argument("--coordinator", default=coordinator, metavar="HOST:PORT",
                   help="sweep-service coordinator: sweep/table1/recovery "
                        "run on its workers instead of this host, the "
                        "service commands talk to it"
                        + (f" (default: {coordinator})" if coordinator else ""))
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive OpenMP-on-NOW (PPoPP 1999) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from .exec.service import DEFAULT_PORT

    engine = _engine_parent()
    service = _engine_parent(coordinator=f"127.0.0.1:{DEFAULT_PORT}")

    sub.add_parser("list", help="list workload presets").set_defaults(fn=cmd_list)
    sub.add_parser("calibrate", help="show calibrated compute rates").set_defaults(fn=cmd_calibrate)
    t1 = sub.add_parser("table1", help="regenerate Table 1", parents=[engine])
    t1.set_defaults(fn=cmd_table1)
    sub.add_parser("micro", help="§5.1 micro-benchmark summary").set_defaults(fn=cmd_micro)
    sub.add_parser("fig3", help="Figure 3 analytic fractions").set_defaults(fn=cmd_fig3)
    sub.add_parser("migration", help="§5.3 migration cost model").set_defaults(fn=cmd_migration)

    for name, parent, text in (
        ("sweep", engine,
         "run an app x nodes scenario grid through the parallel engine"),
        ("submit", service,
         "the same grid on a running coordinator's workers (sweep with "
         "--coordinator defaulting to the local service port)"),
    ):
        grid = sub.add_parser(name, help=text, parents=[parent])
        grid.add_argument("--apps", default=",".join(APP_NAMES),
                          help="comma-separated kernels (default: all)")
        grid.add_argument("--nodes", default="1,4,8",
                          help="comma-separated team sizes "
                               "(default: %(default)s)")
        grid.add_argument("--preset", choices=sorted(PRESETS),
                          default="bench")
        grid.add_argument("--uncalibrated", action="store_true",
                          help="use the kernels' stock compute rates instead "
                               "of the Table-1-calibrated ones")
        grid.add_argument("--json", default=None, metavar="FILE",
                          help="also write the full sweep (specs, digests, "
                               "results) as JSON")
        grid.add_argument("--timeline", default=None, metavar="FILE",
                          help="write the worker-pool timeline as a Chrome "
                               "trace (one track per worker)")
        grid.set_defaults(fn=cmd_sweep)

    def _add_scenario_args(p, app_required=True):
        """The scenario-description flags run and report share."""
        if app_required:
            p.add_argument("app", help=f"kernel: {', '.join(APP_NAMES)}")
        else:
            p.add_argument("app", nargs="?", default=None,
                           help=f"kernel: {', '.join(APP_NAMES)}")
        p.add_argument("--nprocs", type=int, default=4)
        p.add_argument("--preset", choices=sorted(PRESETS), default="bench")
        p.add_argument("--adaptive", action="store_true",
                       help="use the adaptive runtime even without events")
        p.add_argument("--materialized", action="store_true",
                       help="run real data through the DSM and verify")
        p.add_argument("--extra-nodes", type=int, default=2,
                       help="idle workstations available for joins")
        p.add_argument("--grace", type=float, default=None,
                       help="grace period for --event leaves (s)")
        p.add_argument("--event", action="append", type=_parse_event,
                       metavar="ACTION:TIME[:NODE]",
                       help="schedule an adapt event or crash (repeatable)")
        p.add_argument("--faults", metavar="FILE", default=None,
                       help="replay a plan file (joins, leaves, crashes, "
                            "partitions, message duplication/delay)")
        p.add_argument("--checkpoint-interval", type=float, default=None,
                       help="checkpoint period in simulated seconds")
        p.add_argument("--failure-detection", action="store_true",
                       help="run the heartbeat failure detector (implied by "
                            "a crash in --event or --faults)")

    run = sub.add_parser("run", help="run one kernel on a simulated NOW")
    _add_scenario_args(run)
    run.set_defaults(fn=cmd_run)

    rep = sub.add_parser(
        "report",
        help="run one observed scenario and print the §5 adaptation-cost "
             "breakdown (or render one from a cached sweep digest)",
    )
    _add_scenario_args(rep, app_required=False)
    rep.add_argument("--digest", default=None, metavar="DIGEST",
                     help="render the cost table from a cached sweep entry "
                          "(unique digest prefix) instead of running")
    rep.add_argument("--sweep", default=None, metavar="FILE",
                     help="render the failure/retry/cache counters of a "
                          "sweep JSON (from `repro sweep --json`) instead "
                          "of running")
    rep.add_argument("--trace", default=None, metavar="FILE",
                     help="export the Chrome/Perfetto trace.json")
    rep.add_argument("--metrics", default=None, metavar="FILE",
                     help="export the flat metrics.json")
    rep.add_argument("--cache-dir", default=None,
                     help="result-cache directory for --digest")
    rep.add_argument("--scale", default=None, metavar="FILE",
                     help="render the scaling table of a `repro scale` "
                          "JSON report instead of running")
    rep.set_defaults(fn=cmd_report)

    scale = sub.add_parser(
        "scale",
        help="scaling sweep: flat vs tree synchronization and star vs "
             "fat-tree interconnect across NOW sizes (max per-link load)",
    )
    scale.add_argument("--nodes", default=None,
                       help="comma-separated team sizes "
                            "(default: 8,16,32,64,128; 8,32 with --quick)")
    scale.add_argument("--quick", action="store_true",
                       help="smaller kernels and sizes for CI smoke runs")
    scale.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON report")
    scale.set_defaults(fn=cmd_scale)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection: worker kills/hangs + cache corruption, "
             "asserting bitwise-identical sweeps",
    )
    chaos.add_argument("--apps", default="jacobi",
                       help="comma-separated kernels (default: %(default)s)")
    chaos.add_argument("--nodes", default="4",
                       help="comma-separated team sizes (default: %(default)s)")
    chaos.add_argument("--preset", choices=sorted(PRESETS), default="tiny")
    chaos.add_argument("--scenarios", type=int, default=3,
                       help="distinct seeds per app x nodes cell "
                            "(default: %(default)s)")
    chaos.add_argument("--jobs", type=int, default=2,
                       help="pool size for the chaos sweeps")
    chaos.add_argument("--seed", type=int, default=7,
                       help="chaos plan + backoff seed (runs replay exactly)")
    chaos.add_argument("--kill-rate", type=float, default=0.5,
                       help="P(worker killed) per task attempt")
    chaos.add_argument("--hang-rate", type=float, default=0.0,
                       help="P(worker hangs past its deadline) per attempt")
    chaos.add_argument("--slow-rate", type=float, default=0.25,
                       help="P(worker naps briefly) per attempt")
    chaos.add_argument("--hang-seconds", type=float, default=30.0,
                       help="sleep of an injected hang (exceed the deadline)")
    chaos.add_argument("--corrupt", type=int, default=1,
                       help="warm-cache entries to truncate/bit-flip")
    chaos.add_argument("--retries", type=int, default=2,
                       help="retry budget per task under chaos")
    chaos.add_argument("--deadline-floor", type=float, default=60.0,
                       help="per-task deadline floor in seconds")
    chaos.add_argument("--degrade-after", type=int, default=3,
                       help="consecutive failures before serial degradation "
                            "(0 disables)")
    chaos.add_argument("--cache-dir", default="benchmarks/results/chaos-cache",
                       help="scratch result cache (cleared each run; "
                            "default: %(default)s)")
    chaos.add_argument("--json", default=None, metavar="FILE",
                       help="write the full chaos report as JSON")
    chaos.set_defaults(fn=cmd_chaos)

    rec = sub.add_parser(
        "recovery",
        help="crash-recovery cost vs. checkpoint interval (Jacobi)",
        parents=[engine],
    )
    rec.add_argument("--nprocs", type=int, default=4)
    rec.add_argument("--intervals", default=None,
                     help="comma-separated checkpoint intervals in seconds")
    rec.add_argument("--crash-fraction", type=float, default=0.55,
                     help="crash instant as a fraction of the fault-free run")
    rec.set_defaults(fn=cmd_recovery)

    serve_p = sub.add_parser(
        "serve",
        help="run a sweep-service coordinator (workers register, clients "
             "submit; results land in the shared cache)",
        parents=[engine],
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to listen on (default: %(default)s)")
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="TCP port (default: %(default)s; 0 binds an "
                              "ephemeral port)")
    serve_p.add_argument("--max-attempts", type=int, default=None,
                         help="attempts per task (crashes and timeouts "
                              "alike) before its submitters see a failure "
                              "(default: 3)")
    serve_p.add_argument("--stop", action="store_true",
                         help="stop the coordinator at --coordinator (or "
                              "--host:--port) instead of starting one")
    serve_p.set_defaults(fn=cmd_serve)

    workers_p = sub.add_parser(
        "workers",
        help="run service workers against a coordinator (--status shows "
             "the registered-worker table)",
        parents=[service],
    )
    workers_p.add_argument("--count", type=int, default=1,
                           help="worker processes to start "
                                "(default: %(default)s)")
    workers_p.add_argument("--status", action="store_true",
                           help="query the coordinator's worker table "
                                "instead of starting workers")
    workers_p.set_defaults(fn=cmd_workers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ExecError as err:  # unreachable coordinator, exhausted budget...
        print(f"repro {args.command} failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command line of the benchmark (``BENCHMARK.json`` names this file).

Two ways in:

* the acceptance driver's form, one workload per invocation::

      python3 benchmarks/spine/run.py --workload gauss-wide --seed 7 \
          --seconds 12 --trace 0

  whose last line of standard output is one JSON object with the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
  end-to-end metric with ``--trace 0``, every per-layer metric with
  ``--trace 1``);

* the full report, every workload timed and traced, every metric printed
  by name with its unit::

      PYTHONPATH=src python -m benchmarks.spine [--workload NAME ...]
          [--seed N] [--seconds S] [--passes N] [--no-trace] [--smoke]
          [--json PATH] [--agree]

Either way each measurement runs in a fresh interpreter (a child of this
process, one at a time); set-up is repeated :data:`SETUP_REPEATS` times
per measurement and its median reported.  Keep this module's imports
light: spawned pool tasks and service workers re-import it as their main
module, and that import is part of what ``sweep-grid`` measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Fresh interpreters set up per measurement (the last one measures).
SETUP_REPEATS = 3
#: One measurement, all its children together, must end within this.
MEASUREMENT_TIMEOUT_S = 170.0
#: Child interpreters run with hash randomisation pinned: dict and set
#: layouts then repeat from run to run, which removes interpreter-to-
#: interpreter timing differences that have nothing to do with the code.
CHILD_ENV = {"PYTHONHASHSEED": "0"}


def _import_paths() -> None:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one measurement = SETUP_REPEATS children
# ---------------------------------------------------------------------------
def _run_child(calibrator, argv: List[str], deadline: float) -> Dict[str, Any]:
    chunk = calibrator.chunk()
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--spawned-at", repr(time.monotonic()), "--chunk-before", repr(chunk)] + argv
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measurement child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(calibrator, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, passes: Optional[int]) -> Dict[str, Any]:
    """Set ``workload`` up SETUP_REPEATS times; measure in the last child."""
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        argv.append("--smoke")
    if passes is not None:
        argv += ["--passes", str(passes)]
    repeats = 1 if smoke else SETUP_REPEATS
    deadline = time.monotonic() + MEASUREMENT_TIMEOUT_S
    setups = [_run_child(calibrator, argv + ["--setup-only"], deadline)
              for _ in range(repeats - 1)]
    report = _run_child(calibrator, argv, deadline)
    samples = [s["setup_s"] for s in setups] + [report["setup_s"]]
    report["setup_s"] = statistics.median(samples)
    report["setup_s_samples"] = samples
    return report


def end_to_end_values(report: Dict[str, Any]) -> Dict[str, float]:
    return {"wall_s": report["wall_s"], "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": report["setup_s"]}


# ---------------------------------------------------------------------------
# the driver's form
# ---------------------------------------------------------------------------
def contract_run(args, contract: Dict[str, Any]) -> int:
    from benchmarks.spine.calibrate import Calibrator

    report = measure(Calibrator(), args.workload[0], args.seed, args.seconds,
                     bool(args.trace), args.smoke, args.passes)
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = report["per_layer"] if args.trace else end_to_end_values(report)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if report["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------
def full_report(args, contract: Dict[str, Any]) -> int:
    from benchmarks.spine.calibrate import Calibrator

    calibrator = Calibrator()
    names = args.workload or [w["name"] for w in contract["workloads"]]
    orders = [names, names[::-1]] if args.agree else [names]
    rounds: List[Dict[str, Dict[str, Any]]] = []
    for order in orders:
        rounds.append({})
        for name in order:
            print(f"# {name}: timed run", file=sys.stderr)
            entry = {"timed": measure(calibrator, name, args.seed, args.seconds,
                                      False, args.smoke, args.passes)}
            if not args.no_trace:
                print(f"# {name}: traced run", file=sys.stderr)
                entry["traced"] = measure(calibrator, name, args.seed,
                                          args.seconds, True, args.smoke,
                                          args.passes)
            rounds[-1][name] = entry

    failed = 0
    first = rounds[0]
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    for name in names:
        entry = first[name]
        print(f"\n== {name} — {why[name]}")
        timed = entry["timed"]
        values = end_to_end_values(timed)
        q1, med, q3 = timed["wall_s_pass_quartiles"]
        print(f"   passes {timed['passes']}, per-pass wall quartiles "
              f"{q1:.4f} / {med:.4f} / {q3:.4f} s, sim_s {timed['sim_s']:.6f}, "
              f"failed {timed['failed']} of {timed['attempted']}")
        for m in contract["end_to_end"]:
            print(f"   {m['name']:<42} {values[m['name']]:>14.4f} {m['unit']:<6}"
                  f" (bound {m['bound']:.0%})")
        for m in contract["per_layer"] if "traced" in entry else ():
            print(f"   {m['name']:<42} "
                  f"{entry['traced']['per_layer'][m['name']]:>14.4f} {m['unit']}")
        for part in entry.values():
            failed += part["failed"]
            for failure in part["failures"]:
                print(f"   FAILED {failure}")

    misses = agreement(rounds, contract) if args.agree else []
    for miss in misses:
        print(f"DISAGREE {miss}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(build_json(args, contract, rounds, misses), fh, indent=1)
    return 1 if failed or misses else 0


def agreement(rounds, contract) -> List[str]:
    """Two sets of runs of the same code: medians within the declared
    bounds, simulated quantities and counts identical."""
    misses = []
    a, b = rounds
    for name in a:
        va, vb = end_to_end_values(a[name]["timed"]), end_to_end_values(b[name]["timed"])
        for m in contract["end_to_end"]:
            x, y = va[m["name"]], vb[m["name"]]
            gap = abs(x - y) / min(x, y)
            print(f"agree {name:<12} {m['name']:<12} {x:>10.4f} {y:>10.4f} "
                  f"gap {gap:6.1%} of bound {m['bound']:.0%}")
            if gap > m["bound"]:
                misses.append(f"{name} {m['name']}: {x:.4f} vs {y:.4f}")
        for exact in ("sim_s", "results_sha256"):
            if a[name]["timed"][exact] != b[name]["timed"][exact]:
                misses.append(f"{name} {exact} differs between the two sets")
        if "traced" not in a[name]:
            continue
        la, lb = a[name]["traced"]["per_layer"], b[name]["traced"]["per_layer"]
        for m in contract["per_layer"]:
            if m["unit"] in ("count", "sim_s", "MB") and la[m["name"]] != lb[m["name"]]:
                misses.append(f"{name} {m['name']}: {la[m['name']]} vs {lb[m['name']]}")
    return misses


def build_json(args, contract, rounds, misses) -> Dict[str, Any]:
    import numpy

    from benchmarks.spine.workloads import WORKERS

    return {
        "schema": "repro-spine/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": contract["workloads"],
        "end_to_end": contract["end_to_end"],
        "per_layer": contract["per_layer"],
        "rounds": rounds,
        "disagreements": misses,
    }


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    _import_paths()
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--passes", type=int)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json")
    parser.add_argument("--agree", action="store_true")
    for hidden in ("--spawned-at", "--chunk-before"):
        parser.add_argument(hidden, type=float, help=argparse.SUPPRESS)
    for hidden in ("--child", "--setup-only"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from benchmarks.spine.measure import child_main

        report = child_main(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            args.smoke, args.passes, args.spawned_at, args.chunk_before,
            args.setup_only, [m["name"] for m in contract["per_layer"]])
        print(json.dumps(report))
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return contract_run(args, contract)
    return full_report(args, contract)


if __name__ == "__main__":
    sys.exit(main())

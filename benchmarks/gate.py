"""The perf gate: a fresh spine report against the committed baseline.

    python benchmarks/gate.py BENCH_spine.json --baseline benchmarks/BENCH_spine.json

Compares ``rounds[0][workload]["timed"]`` of the two ``python -m
benchmarks.spine --json`` reports with the bounds ``BENCHMARK.json`` fixes.
Exit 1 names every workload/metric worse than ``baseline x (1 + bound)`` and
every workload failing a larger share of its operations; exit 2 means the
reports do not measure the same thing (docs/TESTING.md §8); exit 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare(report: Dict[str, Any], baseline: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """``(exit code, lines to print)`` for ``report`` against ``baseline``."""
    for key in ("schema", "seed", "seconds", "smoke"):
        if report.get(key) != baseline.get(key):
            return 2, [f"not comparable: {key} is {report.get(key)!r}, "
                       f"the baseline's {baseline.get(key)!r}"]
    new, old = report["rounds"][0], baseline["rounds"][0]
    if set(new) != set(old):
        return 2, [f"not comparable: workload(s) {sorted(set(new) ^ set(old))} "
                   f"on one side only"]
    worse: List[str] = []
    for name in old:
        a, b = new[name]["timed"], old[name]["timed"]
        # sweep-grid draws a fresh grid every pass, so its hash covers as
        # many grids as fitted into the run: it says something about the
        # model only when both sides ran the same number of passes.
        exact = ("sim_s", "results_sha256") if a["passes"] == b["passes"] else ("sim_s",)
        for key in exact:
            if a[key] != b[key]:
                return 2, [f"not comparable: {name} {key} differs from the "
                           f"baseline's (the model changed: regenerate it)"]
        for m in end_to_end:
            limit = b[m["name"]] * (1.0 + m["bound"])
            if a[m["name"]] > limit:
                worse.append(
                    f"WORSE {name} {m['name']}: {a[m['name']]:.4f} {m['unit']} > "
                    f"{b[m['name']]:.4f} x {1.0 + m['bound']:.2f} = {limit:.4f}")
        if a["failed"] * b["attempted"] > b["failed"] * a["attempted"]:
            worse.append(
                f"WORSE {name} failed: {a['failed']} of {a['attempted']} "
                f"operations, the baseline {b['failed']} of {b['attempted']}")
    if worse:
        return 1, worse
    return 0, [f"no end-to-end metric of {len(old)} workload(s) is worse than "
               f"the baseline beyond its bound"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("report")
    parser.add_argument("--baseline", required=True)
    args = parser.parse_args(argv)
    with open(args.report) as fh:
        report = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    code, lines = compare(report, baseline, end_to_end)
    print("\n".join(lines), file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself.

Lives with the benchmark, outside ``testpaths``, so tier-1 does not
collect it; run it with::

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine_smoke.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_contract_limits():
    contract = _contract()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_reports_every_declared_metric(tmp_path):
    contract = _contract()
    path = tmp_path / "spine.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--passes", "1", "--json", str(path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    report = json.loads(path.read_text())
    assert report["workloads"] == contract["workloads"]
    (entries,) = report["rounds"]
    assert list(entries) == [w["name"] for w in contract["workloads"]]
    for name, entry in entries.items():
        timed, traced = entry["timed"], entry["traced"]
        assert timed["failed"] == 0 and traced["failed"] == 0, name
        assert timed["attempted"] >= 1
        for metric in contract["end_to_end"]:
            assert timed[metric["name"]] > 0, (name, metric["name"])
        assert set(traced["per_layer"]) == {m["name"] for m in contract["per_layer"]}
        # per-name self times tile the traced wall measured around the pass
        tile = traced["tile"]
        assert abs(tile["spans_self_s"] - tile["pass_wall_s"]) \
            <= 0.02 * tile["pass_wall_s"], (name, tile)
        assert 0.5 < traced["per_layer"]["host.attributed_share"] <= 1.0
    # the line printed for the driver carries exactly the declared keys
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--passes", "1",
         "--workload", "gauss-wide", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in contract["end_to_end"]}


def test_wrappers_are_uninstalled():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.spine.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        originals = [(owner, attr, getattr(owner, attr).__wrapped__)
                     for owner, attr in tracer.patched_attributes()]
    finally:
        tracer.uninstall()
    assert len(originals) > 20
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)
    assert tracer.patched_attributes() == []

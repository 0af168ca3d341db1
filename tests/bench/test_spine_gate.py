"""The perf gate (benchmarks/gate.py) on synthetic spine reports, and the
``src/`` names the traced spine patches and reads."""

import json

import pytest

from benchmarks.gate import main

WORKLOADS = ("gauss-wide", "mat-verify", "wide-sync", "adapt-churn",
             "sweep-grid")


def make_report():
    return {
        "schema": "repro-spine/1", "seed": 7, "seconds": 12, "smoke": False,
        "rounds": [{
            name: {"timed": {
                "wall_s": 1.0 + k, "peak_rss_mb": 100.0 + k, "setup_s": 2.0,
                "passes": 5, "sim_s": 0.5 * k, "results_sha256": f"{k:064x}",
                "attempted": 40, "failed": 0, "failures": [],
            }}
            for k, name in enumerate(WORKLOADS)
        }],
    }


@pytest.fixture
def gate(tmp_path, capsys):
    """Run the gate's command line on two report dicts."""
    def run(report, baseline):
        paths = []
        for name, body in (("new.json", report), ("base.json", baseline)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(body))
        code = main([str(paths[0]), "--baseline", str(paths[1])])
        return code, capsys.readouterr().err
    return run


def doctored(workload, **fields):
    report = make_report()
    report["rounds"][0][workload]["timed"].update(fields)
    return report


def test_identical_reports_pass(gate):
    assert gate(make_report(), make_report())[0] == 0


def test_wall_beyond_bound_fails_naming_the_workload(gate):
    code, err = gate(doctored("wide-sync", wall_s=3.0 * 1.30), make_report())
    assert code == 1
    assert [line.split()[1:3] for line in err.splitlines()] == [
        ["wide-sync", "wall_s:"]]


def test_wall_inside_bound_passes(gate):
    assert gate(doctored("wide-sync", wall_s=3.0 * 1.20), make_report())[0] == 0


@pytest.mark.parametrize("metric,bound", [("peak_rss_mb", 0.20),
                                          ("setup_s", 0.25)])
def test_every_end_to_end_metric_is_gated(gate, metric, bound):
    base = make_report()["rounds"][0]["mat-verify"]["timed"][metric]
    code, err = gate(doctored("mat-verify", **{metric: base * (1.05 + bound)}),
                     make_report())
    assert code == 1 and f"mat-verify {metric}" in err
    assert gate(doctored("mat-verify", **{metric: base * (0.95 + bound)}),
                make_report())[0] == 0


def test_improvement_never_flags(gate):
    better = make_report()
    for entry in better["rounds"][0].values():
        for metric in ("wall_s", "peak_rss_mb", "setup_s"):
            entry["timed"][metric] *= 0.5
    assert gate(better, make_report())[0] == 0


def test_larger_failed_share_fails(gate):
    code, err = gate(doctored("adapt-churn", failed=1), make_report())
    assert code == 1 and "adapt-churn failed" in err
    # the same share of more operations is not worse
    base = doctored("adapt-churn", failed=1)
    assert gate(doctored("adapt-churn", failed=2, attempted=80), base)[0] == 0


@pytest.mark.parametrize("field,value", [("seed", 23), ("seconds", 6),
                                         ("smoke", True),
                                         ("schema", "repro-spine/0")])
def test_different_run_settings_are_not_comparable(gate, field, value):
    other = make_report()
    other[field] = value
    code, err = gate(other, make_report())
    assert code == 2 and field in err


@pytest.mark.parametrize("field,value", [("results_sha256", "f" * 64),
                                         ("sim_s", 9.0)])
def test_different_model_outputs_are_not_comparable(gate, field, value):
    # not comparable wins over a regression elsewhere in the same report
    other = doctored("gauss-wide", **{field: value})
    other["rounds"][0]["wide-sync"]["timed"]["wall_s"] *= 2.0
    code, err = gate(other, make_report())
    assert code == 2 and f"gauss-wide {field}" in err


def test_result_hash_needs_equal_pass_counts(gate):
    """sweep-grid hashes one fresh grid per pass: a host that fits another
    number of passes into the run has another hash, not another model."""
    other = doctored("sweep-grid", passes=7, results_sha256="f" * 64)
    assert gate(other, make_report())[0] == 0


@pytest.mark.parametrize("side", ["report", "baseline"])
def test_missing_workload_is_not_comparable(gate, side):
    full, short = make_report(), make_report()
    del short["rounds"][0]["sweep-grid"]
    pair = (short, full) if side == "report" else (full, short)
    code, err = gate(*pair)
    assert code == 2 and "sweep-grid" in err


def test_src_has_every_name_the_traced_benchmark_reads():
    """``benchmarks/spine`` patches ``src/`` by attribute name and reads
    live runtimes; a rename there must fail here, not minutes into the
    CI-only spine smoke."""
    import pathlib

    import repro
    from benchmarks.spine.measure import _counts_from_reports
    from benchmarks.spine.tracer import Tracer
    from benchmarks.spine.workloads import OpOutcome
    from repro import api, simcore
    from repro.network import FatTreeSwitch, Switch

    tracer = Tracer()
    try:
        tracer.install()
        report = api.run(
            api.spec_from_preset("tiny", "jacobi", 4))
    finally:
        tracer.uninstall()
    values = {}
    _counts_from_reports(values, [OpOutcome("scenario", 0.0, 1,
                                            reports=[report])])
    # Fan-out waves are counted whatever carries them, and the tracer
    # wraps the method that counts them.
    spans = tracer.table()
    assert values["network.flight_legs"] > 0
    assert spans["network.flight"]["calls"] == values["network.flight_calls"]
    # The dsm entry points the tracer wraps by name are the ones that run.
    for name in ("dsm.notice.apply", "dsm.notice.unknown",
                 "dsm.interval.close", "dsm.access"):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    # The macro-event engine's names survive only as what the tracer
    # patches: one queue class runs, nothing fast-forwards, and no other
    # module mentions them.
    assert type(report.experiment.runtime.sim._queue) is simcore.EventQueue
    assert values["simcore.ff_phases"] == 0
    residue = ("BatchedEventQueue", "push_span", "ff_phases")
    src = pathlib.Path(repro.__file__).parent
    assert sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if any(name in path.read_text() for name in residue)
    ) == ["simcore/events.py", "simcore/simulator.py"]
    # The fat-tree has no wire model of its own: the class attribute the
    # tracer patched (and uninstall() put back) is the one transmit.
    assert vars(FatTreeSwitch)["transmit"] is vars(Switch)["transmit"]

"""Extension — UDP loss resilience.

The testbed spoke UDP (§5.1); real deployments lose packets.  This bench
sweeps a seeded data-plane loss rate on a calibrated kernel and verifies
the protocol's behaviour is *graceful*: runtime grows with the loss rate
(retransmission latency), traffic grows (duplicates), correctness never
wavers — and the lossless run is byte-identical to the no-loss-model run
(the reliability layer is pay-for-use).
"""

import pytest

from repro.apps import Gauss
from repro.bench import format_table
from repro.bench.harness import run_experiment
from repro.faults import FaultInjector, parse_plan

RATES = (0.0, 0.02, 0.05, 0.10)


def lossy_run(rate):
    """Gauss 256 on 4 processes; a positive rate is the plan line
    ``0 loss RATE``, the 0 % point runs with no plan at all."""
    def lossy_wire(rt):
        FaultInjector(rt, parse_plan(f"0 loss {rate}")).install()

    return run_experiment(lambda: Gauss(256), nprocs=4,
                          events=lossy_wire if rate else None)


@pytest.fixture(scope="module")
def sweep():
    return {rate: lossy_run(rate) for rate in RATES}


def test_loss_report(sweep, report):
    rows = []
    for rate, res in sweep.items():
        rows.append([
            f"{rate:.0%}", res.runtime_seconds, res.messages, res.traffic.dropped,
        ])
    report(
        "loss_resilience",
        format_table(
            ["loss rate", "runtime (s)", "messages", "dropped"],
            rows,
            title="Extension: data-plane packet loss vs runtime (Gauss 256, 4 procs)",
        ),
    )


def test_runtime_degrades_gracefully(sweep):
    times = [sweep[r].runtime_seconds for r in RATES]
    assert times == sorted(times)
    # even 10% loss costs well under a 2x slowdown
    assert times[-1] < 2.0 * times[0]


def test_duplicates_add_messages(sweep):
    assert sweep[0.10].messages > sweep[0.0].messages


def test_drop_counters_track_rate(sweep):
    d5 = sweep[0.05].traffic.dropped
    d10 = sweep[0.10].traffic.dropped
    assert 0 < d5 < d10


def test_reliability_layer_pay_for_use(sweep):
    """The 0 % point must be identical to a run with no loss model at all."""
    plain = run_experiment(lambda: Gauss(256), nprocs=4)
    zero = sweep[0.0]
    assert zero.runtime_seconds == pytest.approx(plain.runtime_seconds, rel=1e-12)
    assert zero.messages == plain.messages
    assert zero.traffic.bytes == plain.traffic.bytes

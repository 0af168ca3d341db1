"""§5.1 micro-benchmarks — the calibration anchors.

The simulated network/DSM must land on the testbed measurements:
1-byte round trip 126 µs, lock acquisition 178–272 µs, diff fetch
313–1 544 µs (by size), full page transfer 1 308 µs.  The measuring
programs live in :mod:`repro.bench.micro` (``repro micro`` prints them).
"""

import pytest

from repro.bench import MICRO, format_table
# ``benchmarks/spine/measure.py`` reads these three from this module.
from repro.bench.micro import measure_lock, measure_page_and_diffs, measure_rtt


@pytest.fixture(scope="module")
def micro():
    vals = measure_page_and_diffs()
    vals["rtt"] = measure_rtt()
    vals["lock"] = measure_lock()
    return vals


def test_micro_report(micro, report):
    rows = [
        ["1-byte round trip", micro["rtt"] * 1e6, MICRO.rtt_1byte * 1e6],
        ["lock acquisition", micro["lock"] * 1e6,
         f"{MICRO.lock_min*1e6:.0f}-{MICRO.lock_max*1e6:.0f}"],
        ["small diff fetch", micro["diff_small"] * 1e6, MICRO.diff_min * 1e6],
        ["full-page diff fetch", micro["diff_full"] * 1e6, MICRO.diff_max * 1e6],
        ["page transfer", micro["page"] * 1e6, MICRO.page_transfer * 1e6],
    ]
    report(
        "micro_network",
        format_table(
            ["operation", "simulated (us)", "paper (us)"],
            rows,
            title="Micro-benchmarks (§5.1)",
        ),
    )


def test_rtt(micro):
    assert micro["rtt"] == pytest.approx(MICRO.rtt_1byte, rel=0.01)


def test_page_transfer(micro):
    assert micro["page"] == pytest.approx(MICRO.page_transfer, rel=0.02)


def test_lock_in_published_window(micro):
    assert MICRO.lock_min * 0.95 <= micro["lock"] <= MICRO.lock_max * 1.05


def test_diff_range(micro):
    assert micro["diff_small"] == pytest.approx(MICRO.diff_min, rel=0.15)
    assert micro["diff_full"] == pytest.approx(MICRO.diff_max, rel=0.15)
    assert micro["diff_small"] < micro["diff_full"]

"""Tests for the benchmark harness: paper data, the kernels' Table 1
rates, adaptation-cost methodology, reporting."""

import pytest
from hypothesis import given, strategies as st

from repro.apps import FFT3D, KERNELS, Gauss, Jacobi, NBF
from repro.bench import (
    MICRO,
    MIGRATION_COST,
    TABLE1,
    TABLE2,
    adaptation_delay,
    average_nprocs,
    format_table,
    interpolated_reference,
    ratio_note,
    speedup,
)
from repro.bench.harness import run_experiment
from repro.bench.perf import calibrate_spin


class TestPaperData:
    def test_table1_complete(self):
        apps = {"gauss", "jacobi", "fft3d", "nbf"}
        assert {a for a, _ in TABLE1} == apps
        assert {n for _, n in TABLE1} == {1, 4, 8}

    def test_adaptive_overhead_nil_in_paper(self):
        """The published numbers themselves show <1% overhead."""
        for row in TABLE1.values():
            assert row.time_adaptive == pytest.approx(row.time_standard, rel=0.05)

    def test_one_node_rows_have_no_traffic(self):
        for (app, nodes), row in TABLE1.items():
            if nodes == 1:
                assert row.pages == row.messages == row.diffs == 0

    def test_table2_eight_always_cheaper_than_six(self):
        """The relation our Table 2 bench must reproduce holds in the
        published data itself."""
        for app in ("gauss", "jacobi", "fft3d", "nbf"):
            for leaver in ("end", "middle"):
                assert (
                    TABLE2[(app, leaver, 8)].seconds
                    < TABLE2[(app, leaver, 6)].seconds
                )

    def test_table2_worst_case_below_ten_seconds(self):
        assert max(c.seconds for c in TABLE2.values()) < 10.0

    def test_speedup_helper(self):
        assert speedup("gauss", 8) == pytest.approx(1404.20 / 243.46)

    def test_migration_costs_exceed_spawn_floor(self):
        for cost in MIGRATION_COST.values():
            assert cost > MICRO.spawn_min


class TestCalibration:
    def test_calibrate_spin_positive(self):
        assert calibrate_spin(2_000) > 0

    def test_rates_positive_and_plausible(self):
        assert set(KERNELS) == {"gauss", "jacobi", "fft3d", "nbf"}
        for kernel in KERNELS.values():
            # 1999-era per-op costs: between 10 ns and 10 us
            assert 1e-8 < kernel.RATE < 1e-5

    def test_paper_size_one_node_times_match_table1(self):
        """The rate inverts Table 1's 1-node time at the paper size, which
        is each constructor's defaults."""
        for name, kernel in KERNELS.items():
            published = TABLE1[(name, 1)].time_standard
            assert kernel().ops() * kernel.RATE == pytest.approx(published, rel=1e-9)

    def test_secondary_rates_are_fixed_fractions_of_the_primary(self):
        assert Jacobi.COPY_RATE == Jacobi.RATE * Jacobi.COPY_FRACTION
        assert FFT3D.TRANSPOSE_RATE == FFT3D.RATE * FFT3D.TRANSPOSE_FRACTION
        assert NBF.INTEGRATE_RATE == NBF.RATE * NBF.INTEGRATE_FRACTION

    def test_simulated_1node_run_matches_calibration(self):
        res = run_experiment(lambda: Jacobi(128, 4), nprocs=1)
        assert res.runtime_seconds == pytest.approx(
            Jacobi(128, 4).ops() * Jacobi.RATE, rel=0.02
        )

    @given(st.integers(2, 64), st.integers(1, 20))
    def test_op_counts_positive_monotonic(self, n, iters):
        jn = max(n, 3)  # a Jacobi grid needs an interior row
        assert Jacobi(jn, iters).ops() > 0
        assert Gauss(n, min(iters, n - 1)).ops() >= 0
        assert NBF(n, 4, iters).ops() > 0
        assert Jacobi(jn, iters + 1).ops() > Jacobi(jn, iters).ops()


class TestAdaptationCostMethod:
    def test_interpolation_endpoints(self):
        times = {4: 10.0, 8: 5.0}
        assert interpolated_reference(times, 4) == 10.0
        assert interpolated_reference(times, 8) == 5.0

    def test_interpolation_in_rate_space(self):
        times = {4: 10.0, 8: 5.0}
        mid = interpolated_reference(times, 6)
        # rate interpolation: 1/t = (0.5/10 + 0.5/5) => t = 20/3
        assert mid == pytest.approx(20.0 / 3.0)

    def test_interpolation_clamps_outside(self):
        times = {4: 10.0, 8: 5.0}
        assert interpolated_reference(times, 2) == 10.0
        assert interpolated_reference(times, 12) == 5.0

    def test_interpolation_needs_data(self):
        with pytest.raises(ValueError):
            interpolated_reference({}, 4)

    @given(
        st.floats(1.0, 100.0),
        st.floats(1.0, 100.0),
        st.floats(4.0, 8.0),
    )
    def test_interpolation_between_bounds(self, t_lo, t_hi, avg):
        times = {4: max(t_lo, t_hi), 8: min(t_lo, t_hi)}
        ref = interpolated_reference(times, avg)
        lo, hi = min(times.values()), max(times.values())
        assert lo * (1 - 1e-9) <= ref <= hi * (1 + 1e-9)

    def test_average_nprocs_no_adaptations(self):
        res = run_experiment(lambda: Jacobi(64, 2), nprocs=2)
        assert average_nprocs(res, 2) == 2.0

    def test_adaptation_delay_zero_without_events(self):
        res = run_experiment(lambda: Jacobi(64, 2), nprocs=2, adaptive=True)
        per, total = adaptation_delay(res, {2: res.runtime_seconds}, 2)
        assert per == total == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_format_large_numbers_with_commas(self):
        text = format_table(["x"], [[1234567]])
        assert "1,234,567" in text

    def test_ratio_note(self):
        note = ratio_note(2.0, 4.0)
        assert "x0.50" in note
        assert ratio_note(1.0, 0) == "1.00 (paper: 0)"


class TestHarness:
    def test_run_experiment_deterministic(self):
        def once():
            res = run_experiment(lambda: Gauss(64, 20), nprocs=3)
            return res.runtime_seconds, res.traffic.bytes, res.traffic.messages

        assert once() == once()

    def test_traced_run_has_no_app_payloads(self):
        res = run_experiment(lambda: Jacobi(64, 2), nprocs=2, materialized=False)
        assert res.app.final == {}  # collect skipped in traced mode

    def test_materialized_run_verifies(self):
        res = run_experiment(
            lambda: Jacobi(48, 3), nprocs=2, materialized=True
        )
        assert res.app.verify(rtol=1e-7, atol=1e-9)

    def test_events_hook_called(self):
        seen = []
        run_experiment(
            lambda: Jacobi(64, 2),
            nprocs=2,
            adaptive=True,
            events=lambda rt: seen.append(rt),
        )
        assert len(seen) == 1

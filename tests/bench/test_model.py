"""The closed-form cost models must agree with the simulation."""

import pytest

from repro.apps import Jacobi
from repro.bench import (
    LeaveCostModel,
    MigrationCostModel,
    predicted_max_link_bytes,
)
from repro.bench.harness import run_experiment
from repro.config import SystemConfig


def leave_record(n, nprocs=8):
    res = run_experiment(
        lambda: Jacobi(n, 16),
        nprocs=nprocs,
        adaptive=True,
        events=lambda rt: rt.sim.schedule(
            0.2, lambda: rt.submit_leave(rt.team.node_of(nprocs - 1), grace=1e9)
        ),
    )
    return res.adapt_records[0]


class TestLeaveCostModel:
    @pytest.mark.parametrize("n", [352, 704, 1408])
    def test_predicts_simulated_adaptation_cost(self, n):
        rec = leave_record(n)
        model = LeaveCostModel(SystemConfig())
        predicted = model.adaptation_seconds(rec.drained_pages)
        assert predicted == pytest.approx(rec.duration, rel=0.25), (
            f"n={n}: model {predicted:.4f}s vs simulated {rec.duration:.4f}s"
        )

    def test_predicts_max_link_bytes(self):
        rec = leave_record(704)
        predicted = predicted_max_link_bytes(rec.drained_pages, SystemConfig())
        assert predicted == pytest.approx(rec.max_link_bytes, rel=0.10)

    def test_zero_pages_zero_drain(self):
        model = LeaveCostModel(SystemConfig())
        assert model.drain_seconds(0) == 0.0

    def test_linear_in_pages(self):
        model = LeaveCostModel(SystemConfig())
        d100 = model.drain_seconds(100)
        d200 = model.drain_seconds(200)
        # slope dominates the fixed fill for these sizes
        assert d200 / d100 == pytest.approx(2.0, rel=0.05)


class TestMigrationCostModel:
    def test_matches_simulated_migration(self):
        res = run_experiment(
            lambda: Jacobi(700, 8),
            nprocs=3,
            adaptive=True,
            events=lambda rt: rt.sim.schedule(
                0.4, lambda: rt.submit_leave(2, grace=0.1)
            ),
        )
        mig = res.migrations[0]
        model = MigrationCostModel(SystemConfig())
        lo = model.seconds(mig.image_bytes, spawn_u=0.0)
        hi = model.seconds(mig.image_bytes, spawn_u=1.0)
        assert lo <= mig.total_seconds <= hi

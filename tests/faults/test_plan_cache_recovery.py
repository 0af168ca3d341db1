"""Plan cache vs. crash recovery: a stale plan would surface here.

The access-plan cache memoizes page/range resolution on the hot path.
Crash recovery rebuilds the team and restores shared state through
:func:`~repro.core.checkpoint.restore_checkpoint_live`, which replaces
page contents and ownership under the cache's feet.  The golden matrix
(``tests/golden.py``) pins the crash runs bit for bit; the acceptance bar
here is that the recovered memory equals the fault-free run's while the
cache was being hit throughout.
"""

import numpy as np
import pytest

from ..core.test_checkpoint import counter_program
from ..golden import golden_row
from ..helpers import build_adaptive

N_ITER = 20
CRASH_AT = 0.9


def _run(crash: bool):
    """One checkpointed adaptive run; returns (final grid, RunResult, rt)."""
    sim, rt, pool = build_adaptive(
        nprocs=3, extra_nodes=2, checkpoint_interval=0.1,
        failure_detection=True,
    )
    final = {}
    prog, *_ = counter_program(rt, n_iter=N_ITER, final=final)
    if crash:
        victim = rt.team.node_of(1)
        sim.schedule(CRASH_AT, lambda: rt.inject_crash(victim))
    res = rt.run(prog)
    return final["grid"], res, rt


class TestPlanCacheRecoveryIdentity:
    @pytest.mark.parametrize("scenario", ["jacobi-mat", "crash-mat"],
                             ids=["fault-free", "crash"])
    def test_plan_cache_bitwise_identical(self, scenario):
        row = golden_row(f"{scenario}/flat/obs-off")
        assert row.experiment.runtime.space.plan_cache.hits > 0
        # Same kernel, with and without a mid-run crash: same final bytes.
        assert (row.digests["memory"]
                == golden_row("jacobi-mat/flat/obs-off").digests["memory"])

    def test_crash_recovery_records_identical(self):
        # The recovery record is part of the pinned result JSON.
        row = golden_row("crash-mat/flat/obs-off")
        assert len(row.experiment.recoveries) == 1

    def test_crash_run_recovers_from_live_restore(self):
        """The crash run actually exercised restore_checkpoint_live: a
        checkpoint predates the crash, so it was a warm restore."""
        grid, res, rt = _run(crash=True)
        rec = res.recoveries[0]
        assert rec.checkpoint_time is not None
        assert rec.restore_seconds > 0.0
        assert rt.space.plan_cache.hits > 0
        # and the recovered run still matches a fault-free one bitwise
        fault_free, _, _ = _run(crash=False)
        np.testing.assert_array_equal(grid, fault_free)

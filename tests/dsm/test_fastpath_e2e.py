"""End-to-end plan cache: golden outputs, and proof it engages.

``DsmProcess.access`` memoizes its page/range plan per (segment, reads,
writes), a pure computation, so the golden matrix (``tests/golden.py``;
its rows predate the removal of the cache switch) is the identity
evidence.  Here the same runs show the cache is hit, and that an
adaptation invalidates it.
"""

from ..golden import golden_row


def _plan_cache(row):
    return row.experiment.runtime.space.plan_cache


class TestPlanCacheIdentity:
    def test_traced_jacobi_bitwise_identical(self):
        cache = _plan_cache(golden_row("jacobi/flat/obs-off"))
        assert cache.hits > cache.misses > 0

    def test_materialized_jacobi_bitwise_identical(self):
        cache = _plan_cache(golden_row("jacobi-mat+trace/flat/obs-off"))
        assert cache.hits > cache.misses > 0

    def test_adaptive_join_leave_bitwise_identical(self):
        """Leave + join repartition the team: the cache invalidates (epoch
        bump) and is hit again afterwards."""
        row = golden_row("adapt-mat/flat/obs-off")
        assert row.experiment.adaptations >= 1
        cache = _plan_cache(row)
        assert cache.epoch > 0 and cache.hits > 0

"""End-to-end diff squashing: golden bytes, and proof it engages.

A fetch that collects several diffs of one page concatenates their
positions/values and scatters once, last-writer-wins, instead of applying
them one after another.  The golden matrix (``tests/golden.py``) pins
every output that could notice — modelled runtime, traffic, the tracer
stream and the final page bytes (``memory``) of the paper's four kernels
plus the adaptive and crash-recovery paths — on rows that predate the
removal of the squash switch.  Squashed-equals-sequential over random
diff chains is the hypothesis property in ``test_diff_properties.py``.
"""

import pytest

from ..golden import golden_row


class TestSquashIdentity:
    @pytest.mark.parametrize("kernel", ["fft3d", "gauss", "jacobi", "nbf"])
    def test_kernel_bitwise_identical(self, kernel):
        row = golden_row(f"{kernel}-mat/flat/obs-on")
        assert "memory" in row.digests and row.experiment.app.verify()
        if kernel == "jacobi":
            # The only kernel with unaligned rows, hence multi-writer
            # pages: its fetches collect several diffs and squash them.
            assert row.registry.counters["dsm.diff.squashes"].value > 0

    def test_traced_gauss_bitwise_identical(self):
        """Traced mode never has page bytes, but ordering still matters for
        applied-clock updates; the tracer stream pins it."""
        assert "records" in golden_row("gauss+trace/flat/obs-off").digests

    def test_adaptive_join_leave_bitwise_identical(self):
        """Leave + join renumber pids mid-run; multi-writer diffs from both
        epochs squash to the pinned bytes."""
        row = golden_row("adapt-mat/flat/obs-on")
        assert row.experiment.adaptations >= 1
        assert row.registry.counters["dsm.diff.squashes"].value > 0

    def test_crash_recovery_bitwise_identical(self):
        """A fail-stop crash + checkpoint restore replays intervals; the
        recovered grid is the pinned one and verifies."""
        row = golden_row("crash-mat/flat/obs-on")
        assert len(row.experiment.recoveries) == 1
        assert row.experiment.app.verify()

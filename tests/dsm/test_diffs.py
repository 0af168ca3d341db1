"""Tests for twin/diff encoding and application."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dsm import VectorClock, apply_diffs_in_order, changed_ranges, make_diff


class TestChangedRanges:
    def test_no_change(self):
        a = np.zeros(64, dtype=np.uint8)
        assert changed_ranges(a, a.copy()) == []

    def test_single_byte(self):
        twin = np.zeros(64, dtype=np.uint8)
        cur = twin.copy()
        cur[10] = 7
        assert changed_ranges(twin, cur) == [(10, 11)]

    def test_run_at_edges(self):
        twin = np.zeros(16, dtype=np.uint8)
        cur = twin.copy()
        cur[0] = 1
        cur[15] = 1
        assert changed_ranges(twin, cur) == [(0, 1), (15, 16)]

    def test_contiguous_run(self):
        twin = np.zeros(64, dtype=np.uint8)
        cur = twin.copy()
        cur[5:20] = 3
        assert changed_ranges(twin, cur) == [(5, 20)]

    def test_full_page_run(self):
        """Every byte changed: one run covering the whole page."""
        twin = np.zeros(4096, dtype=np.uint8)
        cur = np.ones(4096, dtype=np.uint8)
        assert changed_ranges(twin, cur) == [(0, 4096)]

    def test_alternating_single_byte_runs(self):
        """Worst-case fragmentation: every other byte changed."""
        twin = np.zeros(64, dtype=np.uint8)
        cur = twin.copy()
        cur[::2] = 1
        assert changed_ranges(twin, cur) == [(i, i + 1) for i in range(0, 64, 2)]

    def test_empty_arrays(self):
        a = np.zeros(0, dtype=np.uint8)
        assert changed_ranges(a, a.copy()) == []

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            changed_ranges(np.zeros(4, np.uint8), np.zeros(5, np.uint8))

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_ranges_exactly_cover_differences(self, a, b):
        twin = np.frombuffer(a, dtype=np.uint8)
        cur = np.frombuffer(b, dtype=np.uint8)
        ranges = changed_ranges(twin, cur)
        covered = set()
        for s, e in ranges:
            covered.update(range(s, e))
        truth = {i for i in range(32) if a[i] != b[i]}
        assert covered == truth


class TestMakeDiff:
    def test_materialized_diff_roundtrip(self):
        twin = np.zeros(128, dtype=np.uint8)
        cur = twin.copy()
        cur[3:9] = 5
        cur[100] = 9
        diff = make_diff(1, 2, 0, VectorClock([0, 2]), [], twin=twin, current=cur)
        target = twin.copy()
        diff.apply(target)
        assert np.array_equal(target, cur)
        assert diff.dirty_bytes == 7
        assert diff.wire_size == 7 + 16

    def test_identical_write_produces_none(self):
        twin = np.zeros(64, dtype=np.uint8)
        diff = make_diff(0, 1, 0, VectorClock([1]), [(0, 64)], twin=twin, current=twin.copy())
        assert diff is None

    def test_traced_mode_uses_declared_ranges(self):
        diff = make_diff(0, 1, 3, VectorClock([1]), [(0, 10), (5, 20)])
        assert diff.ranges == [(0, 20)]
        assert diff.buf is None and diff.offsets is None
        assert diff.dirty_bytes == 20

    def test_traced_empty_ranges_none(self):
        assert make_diff(0, 1, 3, VectorClock([1]), []) is None

    def test_traced_diff_cannot_apply(self):
        diff = make_diff(0, 1, 3, VectorClock([1]), [(0, 4)])
        with pytest.raises(ValueError):
            diff.apply(np.zeros(64, dtype=np.uint8))

    def test_vc_is_snapshot(self):
        vc = VectorClock([1, 0])
        diff = make_diff(0, 1, 0, vc, [(0, 4)])
        vc.tick(0)
        assert diff.vc.entries == [1, 0]


class TestApplyOrder:
    def _diff(self, proc, seq, vc_entries, start, value, width=16):
        twin = np.zeros(width, dtype=np.uint8)
        cur = twin.copy()
        cur[start : start + 4] = value
        return make_diff(proc, seq, 0, VectorClock(vc_entries), [], twin=twin, current=cur)

    def test_happens_before_order_wins(self):
        """A later interval's write to the same bytes must land last."""
        d1 = self._diff(0, 1, [1, 0], start=0, value=7)
        d2 = self._diff(1, 1, [1, 1], start=0, value=9)  # saw d1's interval
        buf = np.zeros(16, dtype=np.uint8)
        apply_diffs_in_order([d2, d1], buf)
        assert buf[0] == 9

    def test_concurrent_disjoint_diffs_both_apply(self):
        d1 = self._diff(0, 1, [1, 0], start=0, value=7)
        d2 = self._diff(1, 1, [0, 1], start=8, value=9)
        buf = np.zeros(16, dtype=np.uint8)
        apply_diffs_in_order([d1, d2], buf)
        assert buf[0] == 7 and buf[8] == 9

    def test_returns_sorted_list_without_buffer(self):
        d1 = self._diff(0, 1, [1, 0], start=0, value=7)
        d2 = self._diff(1, 1, [1, 1], start=0, value=9)
        ordered = apply_diffs_in_order([d2, d1], None)
        assert [d.proc for d in ordered] == [0, 1]

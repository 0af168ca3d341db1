"""Tests for byte-range arithmetic (incl. hypothesis properties)."""

import numpy as np
from hypothesis import given, strategies as st

from repro.dsm import AddressSpace, SharedArray
from repro.dsm.ranges import (
    clip,
    coalesce,
    merge,
    normalize,
    total_bytes,
)

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 200)).map(lambda t: (min(t), max(t))),
    max_size=12,
)


def covered_set(ranges):
    out = set()
    for s, e in ranges:
        out.update(range(s, e))
    return out


class TestNormalize:
    def test_empty(self):
        assert normalize([]) == []

    def test_drops_empty_ranges(self):
        assert normalize([(5, 5), (3, 3)]) == []

    def test_sorts(self):
        assert normalize([(10, 20), (0, 5)]) == [(0, 5), (10, 20)]

    def test_coalesces_overlap(self):
        assert normalize([(0, 10), (5, 15)]) == [(0, 15)]

    def test_coalesces_adjacent(self):
        assert normalize([(0, 10), (10, 20)]) == [(0, 20)]

    def test_keeps_gaps(self):
        assert normalize([(0, 5), (6, 10)]) == [(0, 5), (6, 10)]

    @given(ranges_strategy)
    def test_preserves_covered_bytes(self, ranges):
        assert covered_set(normalize(ranges)) == covered_set(ranges)

    @given(ranges_strategy)
    def test_output_disjoint_sorted_nonadjacent(self, ranges):
        out = normalize(ranges)
        for (s1, e1), (s2, e2) in zip(out, out[1:]):
            assert e1 < s2
        assert all(s < e for s, e in out)

    @given(ranges_strategy)
    def test_idempotent(self, ranges):
        once = normalize(ranges)
        assert normalize(once) == once


class TestMergeClip:
    @given(ranges_strategy, ranges_strategy)
    def test_merge_is_union(self, a, b):
        assert covered_set(merge(a, b)) == covered_set(a) | covered_set(b)

    def test_clip_window(self):
        assert clip([(0, 10), (20, 30)], 5, 25) == [(5, 10), (20, 25)]

    def test_clip_empty_window(self):
        assert clip([(0, 10)], 10, 10) == []

    @given(ranges_strategy, st.integers(0, 200), st.integers(0, 200))
    def test_clip_is_intersection(self, ranges, a, b):
        lo, hi = min(a, b), max(a, b)
        assert covered_set(clip(ranges, lo, hi)) == covered_set(ranges) & set(range(lo, hi))


class TestSizes:
    def test_total_bytes(self):
        assert total_bytes([(0, 10), (20, 25)]) == 15


class TestRunLengthEncoding:
    """``coalesce``: the one positions-to-runs encoder."""

    @given(st.sets(st.integers(0, 300), max_size=60), st.sampled_from(["uint16", "int64"]))
    def test_matches_normalize_of_unit_ranges(self, members, dtype):
        offsets = np.array(sorted(members), dtype=dtype)
        expected = normalize([(i, i + 1) for i in members])
        assert coalesce(offsets) == expected

    def test_top_of_a_narrow_dtype(self):
        """End offsets are one past the last byte: 65 536 is not a uint16."""
        offsets = np.array([0, 65534, 65535], dtype=np.uint16)
        assert coalesce(offsets) == [(0, 1), (65534, 65536)]

    @given(st.lists(st.integers(0, 99), max_size=40))
    def test_element_set_takes_any_iterable_or_array(self, indices):
        seg = AddressSpace(4096).alloc("A", 800, dtype="float64", shape=(100,))
        arr = SharedArray(seg)
        expected = normalize([(i * 8, (i + 1) * 8) for i in indices])
        assert arr.element_set(indices) == expected
        assert arr.element_set(i for i in indices) == expected
        table = np.array(indices + indices, dtype=np.int32).reshape(2, -1)
        assert arr.element_set(table) == expected

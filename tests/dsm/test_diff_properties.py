"""Property-based tests of the contiguous diff encoding.

The PR-5 hot-path engine stores each diff as one contiguous ``buf`` plus
an ``(starts, ends, offsets)`` index, and squashes same-page diffs into a
single scatter at fetch time.  These tests drive the encoder with
hypothesis-generated write patterns and assert the invariants the rest of
the engine relies on:

* encode→apply round-trips bitwise (any twin, any write pattern);
* traced and materialized encodings agree on ranges and wire size;
* ``positions()``/``index()`` are consistent with ``ranges``;
* squashed application is bitwise-identical to sequential application.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsm.diffs import apply_diffs_in_order, changed_ranges, make_diff
from repro.dsm.intervals import Diff
from repro.dsm.ranges import RUN_HEADER_BYTES, normalize, total_bytes
from repro.dsm.vectorclock import VectorClock

PAGE = 128  # small page => many boundary cases per example


def writes_strategy(page: int = PAGE):
    """A write pattern: list of (offset, value) byte stores."""
    return st.lists(
        st.tuples(st.integers(0, page - 1), st.integers(0, 255)),
        min_size=0,
        max_size=48,
    )


def mutate(base: np.ndarray, writes) -> np.ndarray:
    out = base.copy()
    for off, val in writes:
        out[off] = val
    return out


def encode(twin: np.ndarray, current: np.ndarray, seq: int = 1, proc: int = 0):
    vc = VectorClock.zeros(2)
    vc.advance(proc, seq)
    return make_diff(
        proc=proc, seq=seq, page=0, vc=vc, declared_ranges=[], twin=twin, current=current
    )


class TestRoundTrip:
    @given(writes=writes_strategy(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_apply_reproduces_current(self, writes, seed):
        """make_diff(twin, current).apply(twin-copy) == current, bitwise."""
        rng = np.random.default_rng(seed)
        twin = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        current = mutate(twin, writes)
        diff = encode(twin, current)
        target = twin.copy()
        if diff is None:
            # Every written value equalled the twin byte: no-op interval.
            assert np.array_equal(twin, current)
            return
        diff.apply(target)
        assert np.array_equal(target, current)

    @given(writes=writes_strategy(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scatter_path_matches_slice_path(self, writes, seed):
        """page[positions()] = buf is the same write set as apply()."""
        rng = np.random.default_rng(seed)
        twin = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        current = mutate(twin, writes)
        diff = encode(twin, current)
        if diff is None:
            return
        via_apply = twin.copy()
        diff.apply(via_apply)
        via_scatter = twin.copy()
        via_scatter[diff.positions()] = diff.buf
        assert np.array_equal(via_apply, via_scatter)

    def test_empty_diff_is_none(self):
        page = np.arange(PAGE, dtype=np.uint8)
        assert encode(page, page.copy()) is None

    def test_full_page_dirty_is_one_range(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        current = twin + 1
        diff = encode(twin, current)
        assert diff.ranges == [(0, PAGE)]
        assert diff.dirty_bytes == PAGE
        assert diff.wire_size == PAGE + RUN_HEADER_BYTES


class TestEncodingInvariants:
    @given(writes=writes_strategy(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ranges_normalized_and_sized(self, writes, seed):
        rng = np.random.default_rng(seed)
        twin = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        current = mutate(twin, writes)
        diff = encode(twin, current)
        if diff is None:
            return
        assert diff.ranges == normalize(diff.ranges)  # sorted, coalesced
        assert all(0 <= s < e <= PAGE for s, e in diff.ranges)
        assert diff.dirty_bytes == total_bytes(diff.ranges) == int(diff.buf.size)
        assert diff.wire_size == diff.dirty_bytes + RUN_HEADER_BYTES * len(diff.ranges)
        # positions: strictly increasing, one per dirty byte, inside ranges
        pos = diff.positions()
        assert pos.size == diff.dirty_bytes
        assert bool(np.all(pos[1:] > pos[:-1])) if pos.size > 1 else True
        starts, ends, offsets = diff.index()
        assert starts.tolist() == [s for s, _ in diff.ranges]
        assert ends.tolist() == [e for _, e in diff.ranges]
        # offsets are the running sum of the preceding range lengths
        lens = [e - s for s, e in diff.ranges]
        assert offsets.tolist() == [sum(lens[:i]) for i in range(len(lens))]

    @given(writes=writes_strategy(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_traced_matches_materialized_shape(self, writes, seed):
        """Traced-mode encoding of the true changed ranges has identical
        ranges and wire size to the materialized encoding (the property
        that makes traced-mode network accounting exact)."""
        rng = np.random.default_rng(seed)
        twin = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        current = mutate(twin, writes)
        mat = encode(twin, current)
        declared = changed_ranges(twin, current)
        vc = VectorClock.zeros(2)
        vc.advance(0, 1)
        traced = make_diff(proc=0, seq=1, page=0, vc=vc, declared_ranges=declared)
        if mat is None:
            assert traced is None
            return
        assert traced.ranges == mat.ranges
        assert traced.dirty_bytes == mat.dirty_bytes
        assert traced.wire_size == mat.wire_size
        assert traced.buf is None


def apply_sequentially(diffs, page):
    """The oracle: one plain ``Diff.apply`` per diff, happens-before order."""
    for diff in sorted(diffs, key=Diff.sort_key):
        diff.apply(page)


class TestSquash:
    @given(
        patterns=st.lists(writes_strategy(), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_squashed_equals_sequential(self, patterns, seed):
        """A chain of same-page intervals applied squashed == sequential.

        Builds interval i's diff against the page state left by interval
        i-1 (exactly what successive barrier epochs produce), then applies
        the whole set both ways onto the original base page.
        """
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        state = base.copy()
        diffs = []
        for i, writes in enumerate(patterns, start=1):
            twin = state.copy()
            state = mutate(state, writes)
            d = encode(twin, state, seq=i)
            if d is not None:
                diffs.append(d)
        sequential = base.copy()
        apply_sequentially(diffs, sequential)
        squashed = base.copy()
        apply_diffs_in_order(list(diffs), squashed)
        assert np.array_equal(sequential, squashed)
        # Both equal the final page state: diffs chain without gaps.
        assert np.array_equal(squashed, state)

    def test_squash_is_last_writer_wins(self):
        """Two diffs hitting the same byte: the later interval's value wins
        under squash exactly as under sequential application."""
        base = np.zeros(PAGE, dtype=np.uint8)
        vc1 = VectorClock.zeros(2)
        vc1.advance(0, 1)
        s1 = base.copy()
        s1[10:20] = 7
        d1 = make_diff(proc=0, seq=1, page=0, vc=vc1, declared_ranges=[], twin=base, current=s1)
        vc2 = VectorClock.zeros(2)
        vc2.advance(0, 2)
        s2 = s1.copy()
        s2[15:25] = 9
        d2 = make_diff(proc=0, seq=2, page=0, vc=vc2, declared_ranges=[], twin=s1, current=s2)
        out_seq = base.copy()
        apply_sequentially([d2, d1], out_seq)  # order-insensitive input
        out_sq = base.copy()
        apply_diffs_in_order([d2, d1], out_sq)
        assert np.array_equal(out_seq, out_sq)
        assert np.array_equal(out_sq, s2)

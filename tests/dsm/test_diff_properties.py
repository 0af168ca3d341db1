"""Property-based tests of the run-encoded diff.

A materialized diff is ``buf`` (the changed bytes), ``offsets`` (their
page offsets, in the narrowest unsigned dtype the page needs) and a run
count; ``ranges`` is derived on demand.  These tests drive the encoder
with hypothesis-generated write patterns and assert the invariants the
rest of the engine relies on:

* encode→apply round-trips bitwise (any twin, any write pattern), from a
  twin and from declared ranges alone (the lazily encoded path);
* derived ranges, dirty bytes and wire size equal what ``changed_ranges``
  says, and what the traced encoding of the same ranges says;
* in-order application of a diff chain equals a byte-by-byte reference;
* a diff retains a few bytes per dirty byte and no object per run.
"""

from __future__ import annotations

import gc
import tracemalloc

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


def clock(proc: int = 0, seq: int = 1) -> VectorClock:
    vc = VectorClock.zeros(2)
    vc.advance(proc, seq)
    return vc


def encode(twin: np.ndarray, current: np.ndarray, seq: int = 1, proc: int = 0):
    return make_diff(
        proc=proc, seq=seq, page=0, vc=clock(proc, seq), declared_ranges=[],
        twin=twin, current=current,
    )


def assert_encodes(twin: np.ndarray, current: np.ndarray) -> None:
    """Everything a diff of ``twin -> current`` must satisfy."""
    diff = encode(twin, current)
    ranges = changed_ranges(twin, current)
    if diff is None:
        # Every written value equalled the twin byte: no-op interval.
        assert ranges == [] and np.array_equal(twin, current)
        return
    assert diff.ranges == ranges
    assert diff.runs == len(ranges)
    assert diff.dirty_bytes == total_bytes(ranges) == diff.buf.size == diff.offsets.size
    assert diff.wire_size == diff.dirty_bytes + RUN_HEADER_BYTES * len(ranges)
    target = twin.copy()
    diff.apply(target)
    assert np.array_equal(target, current)


class TestRoundTrip:
    @given(writes=writes_strategy(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_apply_reproduces_current(self, writes, seed):
        """make_diff(twin, current).apply(twin-copy) == current, bitwise,
        and the derived sizes are those of ``changed_ranges``."""
        rng = np.random.default_rng(seed)
        twin = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        assert_encodes(twin, mutate(twin, writes))

    @pytest.mark.parametrize("dirty", [
        [0], [PAGE - 1], [0, PAGE - 1], list(range(PAGE)),
        list(range(0, PAGE, 2)), list(range(1, PAGE, 2)), [],
    ], ids=["first", "last", "both-ends", "full", "even", "odd", "identical"])
    def test_edge_patterns(self, dirty):
        twin = np.arange(PAGE, dtype=np.uint8)
        current = twin.copy()
        current[dirty] ^= 0xFF
        assert_encodes(twin, current)

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

    @given(
        declared=st.lists(
            st.tuples(st.integers(0, PAGE), st.integers(0, PAGE)).map(
                lambda t: (min(t), max(t))),
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_lazily_encoded_roundtrip(self, declared, seed):
        """No twin (a page demoted after its interval closed): the declared
        ranges and the current bytes give the same representation."""
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        diff = make_diff(0, 1, 0, clock(), declared, current=current)
        ranges = normalize(declared)
        if not ranges:
            assert diff is None
            return
        assert diff.ranges == ranges and diff.runs == len(ranges)
        assert diff.offsets.dtype == np.uint8
        assert diff.dirty_bytes == total_bytes(ranges) == diff.buf.size
        assert diff.wire_size == diff.dirty_bytes + RUN_HEADER_BYTES * len(ranges)
        stale = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
        expected = stale.copy()
        for start, end in ranges:
            expected[start:end] = current[start:end]
        diff.apply(stale)
        assert np.array_equal(stale, expected)


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
        # offsets: strictly increasing, one per dirty byte, naming buf's bytes
        offsets = diff.offsets.astype(np.int64)
        assert bool(np.all(offsets[1:] > offsets[:-1]))
        assert offsets.tolist() == [i for s, e in diff.ranges for i in range(s, e)]
        assert np.array_equal(diff.buf, current[offsets])

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
        traced = make_diff(proc=0, seq=1, page=0, vc=clock(), declared_ranges=declared)
        if mat is None:
            assert traced is None
            return
        assert traced.ranges == mat.ranges
        assert traced.runs == mat.runs
        assert traced.dirty_bytes == mat.dirty_bytes
        assert traced.wire_size == mat.wire_size
        assert traced.buf is None and traced.offsets is None

    @pytest.mark.parametrize("page_size, dtype", [
        (256, np.uint8), (4096, np.uint16), (65536, np.uint16), (131072, np.uint32),
    ])
    def test_offset_dtype_is_the_narrowest_that_fits(self, page_size, dtype):
        """The last byte of the page is the largest offset: 65 535 still
        fits uint16, one page size up widens, and both apply correctly."""
        twin = np.zeros(page_size, dtype=np.uint8)
        current = twin.copy()
        current[[0, page_size - 2, page_size - 1]] = 9
        diff = encode(twin, current)
        assert diff.offsets.dtype == dtype
        assert diff.offsets.tolist() == [0, page_size - 2, page_size - 1]
        assert diff.ranges == [(0, 1), (page_size - 2, page_size)]
        assert diff.wire_size == 3 + 2 * RUN_HEADER_BYTES
        target = twin.copy()
        diff.apply(target)
        assert np.array_equal(target, current)

    def test_equality_is_identity(self):
        """Comparing two diffs used to raise (a dataclass ``==`` over
        ndarray fields); now it is defined, and diffs hash."""
        twin = np.zeros(PAGE, dtype=np.uint8)
        a, b = encode(twin, twin + 1), encode(twin, twin + 1)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestFootprint:
    def test_alternating_page_retains_bytes_not_objects(self):
        """Worst-case fragmentation of a 4 KB page: 2 048 dirty bytes in
        2 048 runs.  The diff keeps 1 B of data + 2 B of offset per dirty
        byte and a fixed number of objects — nothing per run."""
        twin = np.zeros(4096, dtype=np.uint8)
        current = twin.copy()
        current[::2] = 1
        vc = clock()

        def build():
            return make_diff(0, 1, 0, vc, [], twin=twin, current=current,
                             vc_is_snapshot=True)

        build()  # first-call caches are not the diff's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            diff = build()
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        grown = [s for s in after.filter_traces(own).compare_to(
            before.filter_traces(own), "filename") if s.size_diff > 0]
        retained = sum(s.size_diff for s in grown)
        blocks = sum(s.count_diff for s in grown)
        assert retained <= 4 * diff.dirty_bytes + 1024, retained
        assert blocks <= 32, blocks  # a tuple per run would be 2 048 more
        assert diff.dirty_bytes == diff.runs == 2048


def apply_bytewise(diffs, page):
    """The oracle: every dirty byte stored singly, diffs in happens-before
    order, so a byte several intervals wrote keeps the last writer's."""
    for diff in sorted(diffs, key=Diff.sort_key):
        offset = 0
        for start, end in diff.ranges:
            for position in range(start, end):
                page[position] = diff.buf[offset]
                offset += 1


class TestSquash:
    @given(
        patterns=st.lists(writes_strategy(), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_squashed_equals_sequential(self, patterns, seed):
        """A fetch that collected a chain of same-page diffs leaves the
        bytes a sequential byte-by-byte replay leaves, whatever order the
        replies arrived in.

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
        reference = base.copy()
        apply_bytewise(diffs, reference)
        shuffled = list(diffs)
        rng.shuffle(shuffled)
        applied = base.copy()
        ordered = apply_diffs_in_order(shuffled, applied)
        assert [d.seq for d in ordered] == sorted(d.seq for d in diffs)
        assert np.array_equal(reference, applied)
        # Both equal the final page state: diffs chain without gaps.
        assert np.array_equal(applied, state)

    def test_squash_is_last_writer_wins(self):
        """Two diffs hitting the same byte: the later interval's value
        wins, whichever order they are handed over in."""
        base = np.zeros(PAGE, dtype=np.uint8)
        s1 = base.copy()
        s1[10:20] = 7
        d1 = encode(base, s1, seq=1)
        s2 = s1.copy()
        s2[15:25] = 9
        d2 = encode(s1, s2, seq=2)
        reference = base.copy()
        apply_bytewise([d2, d1], reference)  # order-insensitive input
        out = base.copy()
        apply_diffs_in_order([d2, d1], out)
        assert np.array_equal(reference, out)
        assert np.array_equal(out, s2)

"""Tests for vector timestamps."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsm import VectorClock


def test_zeros():
    vc = VectorClock.zeros(4)
    assert vc.entries == [0, 0, 0, 0]
    assert vc.width == 4


def test_tick_increments_own_slot():
    vc = VectorClock.zeros(3)
    vc.tick(1)
    vc.tick(1)
    vc.tick(2)
    assert vc.entries == [0, 2, 1]


def test_merge_elementwise_max():
    a = VectorClock([1, 5, 2])
    b = VectorClock([3, 1, 2])
    a.merge(b)
    assert a.entries == [3, 5, 2]


def test_merge_width_mismatch_raises():
    with pytest.raises(ValueError):
        VectorClock([1]).merge(VectorClock([1, 2]))


def test_covers():
    a = VectorClock([2, 3, 1])
    assert a.covers(VectorClock([2, 3, 1]))
    assert a.covers(VectorClock([1, 0, 0]))
    assert not a.covers(VectorClock([3, 0, 0]))


def test_copy_is_independent():
    a = VectorClock([1, 2])
    b = a.copy()
    b.tick(0)
    assert a.entries == [1, 2]


def test_equality_and_hash():
    assert VectorClock([1, 2]) == VectorClock([1, 2])
    assert VectorClock([1, 2]) != VectorClock([2, 1])
    assert hash(VectorClock([1, 2])) == hash(VectorClock([1, 2]))


@given(st.lists(st.integers(0, 100), min_size=1, max_size=8))
def test_merge_idempotent(entries):
    a = VectorClock(entries)
    b = a.copy()
    a.merge(b)
    assert a == b


@given(
    st.integers(2, 6).flatmap(
        lambda w: st.tuples(
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
        )
    )
)
def test_merge_covers_both(pair):
    ea, eb = pair
    a, b = VectorClock(ea), VectorClock(eb)
    merged = a.copy()
    merged.merge(b)
    assert merged.covers(a)
    assert merged.covers(b)


@given(
    st.integers(2, 6).flatmap(
        lambda w: st.tuples(
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
        )
    )
)
def test_sort_key_consistent_with_happens_before(pair):
    """If a strictly happens-before b, a's sort key must be smaller."""
    ea, eb = pair
    a, b = VectorClock(ea), VectorClock(eb)
    if b.covers(a) and a != b:
        assert a.sort_key() < b.sort_key()


class TestCopyOnWriteSnapshots:
    """The interning contract: snapshots freeze, mutators detach."""

    def test_snapshot_shares_storage(self):
        vc = VectorClock([1, 2, 3])
        snap = vc.snapshot()
        assert snap.entries is vc.entries
        assert snap == vc

    def test_tick_detaches_owner_from_snapshot(self):
        vc = VectorClock([1, 2, 3])
        snap = vc.snapshot()
        vc.tick(0)
        assert vc.entries == [2, 2, 3]
        assert snap.entries == [1, 2, 3]
        assert snap.entries is not vc.entries

    def test_mutating_the_snapshot_detaches_it(self):
        vc = VectorClock([1, 2, 3])
        snap = vc.snapshot()
        snap.advance(1, 9)
        assert snap.entries == [1, 9, 3]
        assert vc.entries == [1, 2, 3]

    def test_merge_rebinds_and_preserves_snapshots(self):
        vc = VectorClock([1, 2, 3])
        snap = vc.snapshot()
        vc.merge(VectorClock([0, 5, 1]))
        assert vc.entries == [1, 5, 3]
        assert snap.entries == [1, 2, 3]

    def test_advance_noop_keeps_sharing(self):
        vc = VectorClock([4, 2, 3])
        snap = vc.snapshot()
        vc.advance(0, 3)  # already >= 3: no write, no detach needed
        assert snap.entries is vc.entries

    def test_snapshot_of_snapshot_stays_valid(self):
        vc = VectorClock([1, 1])
        s1 = vc.snapshot()
        s2 = s1.snapshot()
        vc.tick(0)
        s1_entries = list(s1.entries)
        s2_entries = list(s2.entries)
        vc.tick(1)
        assert s1.entries == s1_entries == [1, 1]
        assert s2.entries == s2_entries == [1, 1]

    def test_sort_key_cache_invalidated_by_mutation(self):
        vc = VectorClock([1, 2])
        k1 = vc.sort_key()
        vc.tick(0)
        k2 = vc.sort_key()
        assert k1 == (3, (1, 2))
        assert k2 == (4, (2, 2))

    def test_snapshot_inherits_cached_sort_key(self):
        vc = VectorClock([3, 4])
        key = vc.sort_key()
        snap = vc.snapshot()
        assert snap.sort_key() == key

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 60)), max_size=20),
    )
    def test_snapshot_immutable_under_any_mutation_sequence(self, entries, ops):
        vc = VectorClock(entries)
        snap = vc.snapshot()
        frozen = list(snap.entries)
        w = vc.width
        for slot, seq in ops:
            if slot % 2:
                vc.tick(slot % w)
            else:
                vc.advance(slot % w, seq)
        assert snap.entries == frozen


class TestVersionedMerge:
    """Stamps let ``merge`` skip or adopt; values stay the elementwise max."""

    def test_idle_round_trip_is_adopt_then_noop(self):
        master = VectorClock([3, 1, 2])
        slave = VectorClock([1, 1, 0])
        fork = master.snapshot()
        slave.merge(fork)  # different lineage, dominated: adopt
        assert slave.entries is fork.entries
        join = slave.snapshot()
        master.tick(0)
        master.merge(join)  # same lineage, older version: no-op
        assert master.entries == [4, 1, 2]
        slave.merge(master.snapshot())  # same lineage, newer: adopt
        assert slave.entries is master.entries
        assert slave.entries == [4, 1, 2]

    def test_adopting_a_live_clock_survives_its_next_tick(self):
        live = VectorClock([2, 3, 4])
        adopter = VectorClock([1, 1, 1])
        adopter.merge(live)
        assert adopter.entries is live.entries
        live.tick(0)
        assert live.entries == [3, 3, 4]
        assert adopter.entries == [2, 3, 4]
        adopter.tick(2)
        assert live.entries == [3, 3, 4]
        assert adopter.entries == [2, 3, 5]

    def test_real_merge_leaves_the_old_version(self):
        a, b = VectorClock([1, 0]), VectorClock([0, 1])
        old = a.snapshot()
        a.merge(b)
        old.merge(a)
        assert old.entries == [1, 1]

    def test_mutated_snapshot_leaves_its_sources_lineage(self):
        a = VectorClock([1, 0])
        snap = a.snapshot()
        snap.advance(1, 5)
        a.tick(0)
        a.merge(snap)
        assert a.entries == [2, 5]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 5).flatmap(
            lambda n: st.tuples(
                st.integers(1, 4),
                st.lists(
                    st.tuples(
                        st.sampled_from(
                            ["tick", "tick", "advance", "merge", "merge", "snapshot",
                             "fork", "fork", "join", "join"]),
                        st.integers(0, 4 * n),
                        st.integers(0, 4 * n),
                        st.integers(0, 9),
                    ),
                    max_size=60,
                ),
            ).map(lambda t: (n,) + t)
        )
    )
    def test_histories_match_a_plain_list_reference(self, history):
        """Random tick/advance/merge/snapshot histories over 3-5 clocks
        (their snapshots are clocks too), checked entry by entry against
        plain lists merged by elementwise max.  ``fork`` and ``join`` are
        the synchronization shapes: a clock adopts another's snapshot, or
        ticks its slot and is folded into another by a snapshot.  Frozen
        snapshots nobody touches must keep their value, and ``covers``
        must agree with the lists for every pair."""
        n, width, ops = history
        clocks = [VectorClock.zeros(width) for _ in range(n)]
        ref = [[0] * width for _ in range(n)]
        frozen = []
        for op, i, j, k in ops:
            i %= len(clocks)
            j %= len(clocks)
            slot = k % width
            if op == "tick":
                clocks[i].tick(slot)
                ref[i][slot] += 1
            elif op == "advance":
                clocks[i].advance(slot, k)
                ref[i][slot] = max(ref[i][slot], k)
            elif op == "merge":
                clocks[i].merge(clocks[j])
                ref[i] = [max(a, b) for a, b in zip(ref[i], ref[j])]
            elif op == "fork":
                clocks[j].merge(clocks[i].snapshot())
                ref[j] = [max(a, b) for a, b in zip(ref[i], ref[j])]
            elif op == "join":
                clocks[j].tick(slot)
                ref[j][slot] += 1
                clocks[i].merge(clocks[j].snapshot())
                ref[i] = [max(a, b) for a, b in zip(ref[i], ref[j])]
            else:
                clocks.append(clocks[i].snapshot())
                ref.append(list(ref[i]))
                frozen.append((clocks[i].snapshot(), list(ref[i])))
            for clock, want in zip(clocks, ref):
                assert clock.entries == want
                assert clock.sort_key() == (sum(want), tuple(want))
            for snap, want in frozen:
                assert snap.entries == want
            for clock, want in zip(clocks, ref):
                for other, theirs in zip(clocks, ref):
                    assert clock.covers(other) == all(
                        a >= b for a, b in zip(want, theirs))
            # Probe the touched clock's stamp against every other clock's
            # through throwaway snapshots, which share the stamps.
            for other, want in zip(clocks, ref):
                union = [max(a, b) for a, b in zip(ref[i], want)]
                probe = other.snapshot()
                probe.merge(clocks[i])
                assert probe.entries == union
                probe = clocks[i].snapshot()
                probe.merge(other)
                assert probe.entries == union


class TestStampedMerges:
    """The fork/join round trip merges by the slots written, never by a
    scan (``_merge_scan``)."""

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        scan = VectorClock._merge_scan

        def counting(self, other):
            scans.append(other)
            scan(self, other)

        monkeypatch.setattr(VectorClock, "_merge_scan", counting)
        return scans

    def test_flat_fork_join_round_trip_never_scans(self, monkeypatch):
        width = 6
        master = VectorClock.zeros(width)
        slaves = [VectorClock.zeros(width) for _ in range(1, width)]
        # Epoch start: every clock is fresh, so the first fork scans.
        master.tick(0)
        for slave in slaves:
            slave.merge(master.snapshot())
        scans = self._count_scans(monkeypatch)
        for _ in range(3):
            master.tick(0)
            fork = master.snapshot()
            for pid, slave in enumerate(slaves, 1):
                slave.merge(fork)  # adopt
                assert slave.entries is fork.entries
                slave.tick(pid)
            for slave in slaves:
                master.merge(slave.snapshot())  # fold: one slot each
            release = master.snapshot()
            for slave in slaves:
                slave.merge(release)  # covered our tick: adopt
                assert slave.entries is release.entries
        assert scans == []
        assert master.entries == [4] + [3] * (width - 1)

    def test_barrier_release_keeps_a_slot_the_master_has_not_seen(self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        master = VectorClock([1, 0, 0])
        slave = VectorClock.zeros(3)
        slave.merge(master)
        fork = master.snapshot()
        slave.merge(fork)
        slave.tick(2)
        slave.tick(2)
        master.tick(0)
        master.merge(VectorClock([0, 0, 1]).snapshot())
        scans.clear()
        slave.merge(master.snapshot())
        assert scans == [] and slave.entries == [2, 0, 2]
        assert slave.covers(master) and not master.covers(slave)
        assert master.entries == [2, 0, 1]

    def test_stamp_names_the_value(self):
        vc = VectorClock([1, 2])
        snap = vc.snapshot()
        assert snap.stamp == vc.stamp
        vc.tick(0)
        assert snap.stamp != vc.stamp

    def test_traced_gauss_scans_at_most_one_merge_in_a_hundred(self, monkeypatch):
        from repro.api import ScenarioSpec
        from repro.exec.pool import execute_spec

        scans = self._count_scans(monkeypatch)
        merges = []
        merge = VectorClock.merge

        def counting(self, other):
            merges.append(other)
            merge(self, other)

        monkeypatch.setattr(VectorClock, "merge", counting)
        execute_spec(ScenarioSpec(kernel="gauss", params={"n": 96, "iterations": 95},
                                  nprocs=16))
        assert merges and len(scans) <= len(merges) / 100

"""Tests for the address space, local stores, page tables, and teams."""

import numpy as np
import pytest

from repro.dsm import AddressSpace, LocalStore, PageTable, Protocol, TeamView
from repro.dsm.intervals import WriteNotice
from repro.dsm.memory import MAX_PAGES
from repro.dsm.page import AccessMode
from repro.errors import AdaptationError, AllocationError, DsmError


class TestAddressSpace:
    def test_alloc_page_aligned(self):
        space = AddressSpace(4096)
        a = space.alloc("a", 5000)
        b = space.alloc("b", 100)
        assert a.page0 == 0 and a.npages == 2
        assert b.page0 == 2 and b.npages == 1
        assert space.total_pages == 3
        assert space.total_bytes == 5100

    def test_alloc_rejects_bad_sizes(self):
        space = AddressSpace(4096)
        with pytest.raises(AllocationError):
            space.alloc("a", 0)

    def test_page_ids_are_bounded_at_allocation(self):
        """Every process keeps dense columns over the whole space, so the
        2**21 page-id bound is enforced where page ids are handed out."""
        space = AddressSpace(4096)
        space.alloc("a", 4096 * (MAX_PAGES - 1))
        with pytest.raises(AllocationError):
            space.alloc("b", 4096 * 2)
        assert space.total_pages == MAX_PAGES - 1
        assert space.alloc("c", 4096).page0 == MAX_PAGES - 1

    def test_duplicate_name_rejected(self):
        space = AddressSpace(4096)
        space.alloc("a", 10)
        with pytest.raises(AllocationError):
            space.alloc("a", 10)

    def test_by_name(self):
        space = AddressSpace(4096)
        seg = space.alloc("grid", 100)
        assert space.by_name("grid") is seg
        with pytest.raises(AllocationError):
            space.by_name("nope")

    def test_segment_of_page(self):
        space = AddressSpace(4096)
        a = space.alloc("a", 8192)
        b = space.alloc("b", 4096)
        assert space.segment_of_page(0) is a
        assert space.segment_of_page(1) is a
        assert space.segment_of_page(2) is b
        with pytest.raises(AllocationError):
            space.segment_of_page(3)

    def test_pages_for_range(self):
        space = AddressSpace(4096)
        seg = space.alloc("a", 4096 * 4)
        assert list(seg.pages_for_range(0, 4096)) == [0]
        assert list(seg.pages_for_range(4095, 4097)) == [0, 1]
        assert list(seg.pages_for_range(0, 0)) == []
        assert list(seg.pages_for_range(8192, 16384)) == [2, 3]
        with pytest.raises(AllocationError):
            seg.pages_for_range(0, 999999)

    def test_page_window_clips_to_segment_end(self):
        space = AddressSpace(4096)
        seg = space.alloc("a", 5000)
        assert seg.page_window(0, 4096) == (0, 4096)
        assert seg.page_window(1, 4096) == (4096, 5000)


class TestLocalStore:
    def test_page_view_is_window_of_buffer(self):
        space = AddressSpace(4096)
        seg = space.alloc("a", 8192)
        store = LocalStore(space)
        view = store.page_view(1)
        view[:] = 7
        assert store.buffer(seg)[4096] == 7
        assert store.buffer(seg)[0] == 0

    def test_array_view_dtype_shape(self):
        space = AddressSpace(4096)
        seg = space.alloc("m", 4 * 4 * 8, dtype="float64", shape=(4, 4))
        store = LocalStore(space)
        arr = store.array_view(seg)
        assert arr.shape == (4, 4)
        arr[2, 3] = 1.5
        # mutating the view mutates the underlying page bytes
        raw = store.page_view(seg.page0).view(np.float64)
        assert raw[2 * 4 + 3] == 1.5


class TestPageTable:
    """The dense column store, through its per-page view."""

    def _table(self, npages=8, protocol=Protocol.MULTIPLE_WRITER):
        space = AddressSpace(4096)
        space.alloc("seg", 4096 * npages, protocol=protocol)
        return PageTable("P0", space)

    def _mapped(self, table, page, owner=0, valid=True):
        table.map(page, owner=owner, valid=valid)
        return table.entry(page)

    def _notice(self, proc, seq, page):
        return WriteNotice(proc=proc, seq=seq, page=page, vc=None)

    def test_unmapped_page_raises(self):
        table = self._table()
        with pytest.raises(DsmError):
            table.entry(3)
        with pytest.raises(DsmError):
            table.entry(99)  # outside the address space

    def test_map_and_lookup(self):
        table = self._table()
        pte = self._mapped(table, 3, owner=1, valid=False)
        assert (pte.page, pte.owner, pte.valid) == (3, 1, False)
        assert pte.protocol is Protocol.MULTIPLE_WRITER
        assert pte.mode is AccessMode.NONE and pte.last_access_epoch == -1
        assert 3 in table and 4 not in table
        assert len(table) == 1

    def test_add_notice_invalidates(self):
        pte = self._mapped(self._table(), 0)
        assert pte.readable
        pte.add_notice(self._notice(1, 1, 0))
        assert not pte.readable
        assert len(pte.pending) == 1

    def test_add_notice_deduplicates(self):
        table = self._table()
        pte = self._mapped(table, 0)
        pte.add_notice(self._notice(1, 1, 0))
        pte.add_notice(self._notice(1, 1, 0))
        assert len(pte.pending) == 1
        assert table.npending[0] == 1
        # a later interval of the same writer replaces, not adds
        pte.add_notice(self._notice(1, 3, 0))
        pte.add_notice(self._notice(1, 2, 0))  # out of order: older loses
        assert [(n.proc, n.seq) for n in pte.pending] == [(1, 3)]
        assert table.npending[0] == 1

    def test_covered_notice_ignored(self):
        table = self._table()
        pte = self._mapped(table, 0)
        table.advance(0, 1, 5)
        pte.add_notice(self._notice(1, 3, 0))
        assert pte.readable
        assert pte.applied == {1: 5}

    def test_prune_pending(self):
        table = self._table()
        pte = self._mapped(table, 0)
        pte.add_notice(self._notice(1, 1, 0))
        pte.add_notice(self._notice(2, 4, 0))
        table.advance(0, 1, 1)
        pte.prune_pending()
        assert [n.proc for n in pte.pending] == [2]
        assert table.npending[0] == 1
        table.clear_pending(0)
        assert pte.readable and table.pending_of(0) == {}

    def test_entries_snapshot_sorted(self):
        table = self._table(protocol=Protocol.SINGLE_WRITER)
        for page in (5, 1, 3):
            table.map(page, owner=0, valid=False)
        assert [p.page for p in table] == [1, 3, 5]
        assert all(p.protocol is Protocol.SINGLE_WRITER for p in table)

    def test_columns_grow_with_the_address_space(self):
        """Segments allocated after a process exists extend its columns,
        including per-writer columns already in use."""
        space = AddressSpace(4096)
        space.alloc("a", 4096 * 2)
        table = PageTable("P0", space)
        table.map(1, owner=0, valid=True)
        table.add_pending(1, 2, 7)
        space.alloc("b", 4096 * 3, protocol=Protocol.SINGLE_WRITER)
        assert len(table.valid) == len(table.pending[2]) == 5
        table.map(4, owner=1, valid=False)
        assert table.entry(4).protocol is Protocol.SINGLE_WRITER
        assert table.add_pending(4, 2, 1) and table.npending[4] == 1
        assert table.pending_of(1) == {2: 7}

    def test_reset_epoch_and_owner_remap(self):
        """GC: copies with anything pending go invalid, every per-writer
        cell and demotion is dropped; adaptation renumbers owner cells."""
        table = self._table(protocol=Protocol.SINGLE_WRITER)
        for page, owner in ((0, 0), (1, 2), (2, 3)):
            table.map(page, owner=owner, valid=True)
        table.add_pending(1, 2, 4)
        table.advance(2, 3, 9)
        table.protocol[2] = 1  # demoted to multiple-writer
        table.reset_epoch()
        assert [p.valid for p in table] == [True, False, True]
        assert table.npending == [0] * 8
        assert table.applied == {} and table.pending == {}
        assert table.entry(2).protocol is Protocol.SINGLE_WRITER
        table.remap_owners({0: 0, 3: 1}, default=0)  # pid 2 left
        assert [p.owner for p in table] == [0, 0, 1]


class TestTeamView:
    def test_basic_mapping(self):
        team = TeamView([10, 11, 12])
        assert team.nprocs == 3
        assert list(team.pids) == [0, 1, 2]
        assert list(team.slave_pids) == [1, 2]
        assert team.node_of(1) == 11
        assert team.pid_of_node(12) == 2
        assert team.has_node(10) and not team.has_node(99)

    def test_unknown_pid_raises(self):
        team = TeamView([10])
        with pytest.raises(AdaptationError):
            team.node_of(5)

    def test_set_mapping_validates_density(self):
        team = TeamView([10, 11])
        with pytest.raises(AdaptationError):
            team.set_mapping({0: 10, 2: 11})

    def test_set_mapping_validates_duplicates(self):
        team = TeamView([10, 11])
        with pytest.raises(AdaptationError):
            team.set_mapping({0: 10, 1: 10})

    def test_set_mapping_bumps_generation(self):
        team = TeamView([10, 11])
        g = team.generation
        team.set_mapping({0: 10, 1: 12})
        assert team.generation == g + 1
        assert team.node_of(1) == 12

    def test_move_pid(self):
        team = TeamView([10, 11])
        team.move_pid(1, 55)
        assert team.node_of(1) == 55

    def test_empty_team_rejected(self):
        with pytest.raises(AdaptationError):
            TeamView([])

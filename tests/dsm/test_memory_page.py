"""Tests for the address space, local stores, page tables, and teams."""

import mmap

import numpy as np
import pytest

from repro.dsm import AddressSpace, LocalStore, PageTable, Protocol, TeamView
from repro.dsm.memory import MAX_PAGES
from repro.dsm.page import MODE_NONE, MW, SW
from repro.errors import AdaptationError, AllocationError


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

    def test_buffer_is_a_private_demand_zero_mapping(self):
        """Each segment's buffer views its own anonymous mapping, so pages
        nobody writes take no memory; it reads as zeros and is writable."""
        space = AddressSpace(4096)
        a, b = space.alloc("a", 3 * 4096), space.alloc("b", 100)
        store = LocalStore(space)
        buf = store.buffer(a)
        mapping = buf.base.obj  # frombuffer's base is a memoryview
        assert isinstance(mapping, mmap.mmap) and len(mapping) == 3 * 4096
        assert buf.flags.writeable and not buf.any()
        assert store.buffer(b).base.obj is not mapping
        assert store.buffer(b).size == 4096  # padded to whole pages


class TestPageTable:
    """The dense column store, one page's cells at a time."""

    def _table(self, npages=8, protocol=Protocol.MULTIPLE_WRITER):
        space = AddressSpace(4096)
        space.alloc("seg", 4096 * npages, protocol=protocol)
        return PageTable(space)

    def _mapped(self, table, page, owner=0, valid=True):
        table.map(page, valid=valid)
        table.owner[page] = owner
        return page

    @staticmethod
    def _readable(table, page):
        return bool(table.valid[page]) and not table.npending[page]

    def test_unmapped_page_raises(self):
        table = self._table()
        assert 3 not in table
        assert 99 not in table  # outside the address space
        with pytest.raises(IndexError):
            table.valid[99]

    def test_map_and_lookup(self):
        table = self._table()
        page = self._mapped(table, 3, owner=1, valid=False)
        assert (page, table.owner[page], table.valid[page]) == (3, 1, False)
        assert table.protocol[page] == MW
        assert table.mode[page] == MODE_NONE
        assert 3 in table and 4 not in table
        assert len(table) == 1

    def test_add_notice_invalidates(self):
        table = self._table()
        page = self._mapped(table, 0)
        assert self._readable(table, page)
        table.add_pending(page, 1, 1)
        assert not self._readable(table, page)
        assert len(table.pending_of(page)) == 1

    def test_add_notice_deduplicates(self):
        table = self._table()
        page = self._mapped(table, 0)
        table.add_pending(page, 1, 1)
        table.add_pending(page, 1, 1)
        assert len(table.pending_of(page)) == 1
        assert table.npending[0] == 1
        # a later interval of the same writer replaces, not adds
        table.add_pending(page, 1, 3)
        table.add_pending(page, 1, 2)  # out of order: older loses
        assert list(table.pending_of(page).items()) == [(1, 3)]
        assert table.npending[0] == 1

    def test_covered_notice_ignored(self):
        table = self._table()
        page = self._mapped(table, 0)
        table.advance(0, 1, 5)
        table.add_pending(page, 1, 3)
        assert self._readable(table, page)
        assert table.applied_of(page) == {1: 5}

    def test_prune_pending(self):
        table = self._table()
        page = self._mapped(table, 0)
        table.add_pending(page, 1, 1)
        table.add_pending(page, 2, 4)
        table.advance(0, 1, 1)
        table.prune_pending(page)
        assert list(table.pending_of(page)) == [2]
        assert table.npending[0] == 1
        table.clear_pending(0)
        assert self._readable(table, page) and table.pending_of(0) == {}

    def test_writer_columns_created_out_of_order_stay_ascending(self):
        table = self._table()
        pending = table.pending
        for page in (0, 1):
            self._mapped(table, page)
        for writer in (5, 1, 3):
            table.add_pending(0, writer, writer + 10)
        table.add_pending(1, 3, 2)
        assert pending is table.pending and list(pending) == [1, 3, 5]
        assert list(table.pending_of(0).items()) == [(1, 11), (3, 13), (5, 15)]
        assert table.pending_of(1) == {3: 2}
        table.add_pending(1, 0, 4)  # a new lowest writer, after the walk
        assert list(pending) == [0, 1, 3, 5]
        assert list(table.pending_of(1).items()) == [(0, 4), (3, 2)]

    @pytest.mark.parametrize("writers", [
        (), (3,), (1, 3, 5), (5, 7), (9,),
    ], ids=["none", "partial", "all", "stale", "unknown"])
    def test_clear_pending_zeroes_every_cell_whatever_writers_it_is_told(
            self, writers):
        """``writers`` is what ``pending_of`` found; a notice that arrived
        since (or a partial list) must be dropped all the same."""
        table = self._table()
        for page in (2, 3):
            self._mapped(table, page)
        for writer in (5, 1, 3):
            table.add_pending(2, writer, 4)
        table.add_pending(3, 1, 6)
        table.clear_pending(2, writers)
        assert table.npending[2] == 0 and table.pending_of(2) == {}
        assert all(col[2] == 0 for col in table.pending.values())
        assert table.pending_of(3) == {1: 6} and table.npending[3] == 1

    def test_entries_snapshot_sorted(self):
        table = self._table(protocol=Protocol.SINGLE_WRITER)
        for page in (5, 1, 3):
            table.map(page, valid=False)
        mapped = [p for p in range(len(table.mapped)) if p in table]
        assert mapped == [1, 3, 5]
        assert all(table.protocol[p] == SW for p in mapped)

    def test_columns_grow_with_the_address_space(self):
        """Segments allocated after a process exists extend its columns,
        including per-writer columns already in use."""
        space = AddressSpace(4096)
        space.alloc("a", 4096 * 2)
        table = PageTable(space)
        table.map(1, valid=True)
        table.add_pending(1, 2, 7)
        space.alloc("b", 4096 * 3, protocol=Protocol.SINGLE_WRITER)
        assert len(table.valid) == len(table.pending[2]) == 5
        assert len(table.owner) == 5 and table.owner[2:] == [0, 0, 0]
        table.map(4, valid=False)
        assert table.protocol[4] == SW
        assert table.add_pending(4, 2, 1) and table.npending[4] == 1
        assert table.pending_of(1) == {2: 7}

    def test_reset_epoch_and_owner_remap(self):
        """GC: copies with anything pending go invalid, every per-writer
        cell and demotion is dropped; adaptation renumbers owner cells."""
        table = self._table(protocol=Protocol.SINGLE_WRITER)
        for page, owner in ((0, 0), (1, 2), (2, 3)):
            self._mapped(table, page, owner=owner, valid=True)
        table.add_pending(1, 2, 4)
        table.advance(2, 3, 9)
        table.protocol[2] = MW  # demoted to multiple-writer
        table.reset_epoch()
        assert list(table.valid[:3]) == [True, False, True]
        assert table.npending == [0] * 8
        assert table.applied == {} and table.pending == {}
        assert table.protocol[2] == SW
        table.remap_owners({0: 0, 3: 1}, default=0)  # pid 2 left
        assert table.owner[:3] == [0, 0, 1]


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

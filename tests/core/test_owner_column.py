"""The page table's owner column is each process's whole page-location
map (§4.1): every page has an owner cell, mapped or not.  These tests
follow the column through the places that write it for pages a process
never touched: the joiner's map, the leave drain and a checkpoint
restore."""

import pytest

from repro.core import runtime as core_runtime
from repro.core.checkpoint import restore_checkpoint
from repro.core.leave import absorb_leaver_pages
from repro.dsm import DsmProcess, TeamView

from ..helpers import build_adaptive
from .test_adaptive_runtime import iterative_program
from .test_checkpoint import counter_program

PAGE = 4096
MASTER = TeamView.MASTER_PID


@pytest.mark.parametrize("joiners", [1, 2])
def test_joiner_column_equals_the_masters_after_ship_page_maps(monkeypatch, joiners):
    """A lone joiner gets the map straight from the master, two get it
    through the tree; either way each installs the master's column as it
    was at shipping time."""
    sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=2)
    shipped, installed = [], {}
    ship = core_runtime.ship_page_maps
    on_page_map = DsmProcess._on_page_map

    def ship_and_record(runtime, procs):
        ship(runtime, procs)
        shipped.append((list(runtime.master.lrc.table.owner), [p.pid for p in procs]))

    def install_and_record(self, msg):
        # the map in flight is a copy, never the master's live column
        assert msg.payload["owners"] is not rt.master.lrc.table.owner
        on_page_map(self, msg)
        if self.pid in msg.payload["targets"]:
            installed[self.pid] = list(self.lrc.table.owner)

    monkeypatch.setattr(core_runtime, "ship_page_maps", ship_and_record)
    monkeypatch.setattr(DsmProcess, "_on_page_map", install_and_record)
    prog = iterative_program(rt, n_iter=4, compute=1.0)
    for node in range(2, 2 + joiners):
        sim.schedule(0.01, lambda node=node: rt.submit_join(node))
    res = rt.run(prog)
    assert res.adaptations == joiners
    [(column, pids)] = shipped
    assert len(pids) == joiners and len(column) == rt.space.total_pages
    assert set(column) - {MASTER}, "the map should name some slave owner"
    assert installed == {pid: column for pid in pids}


def test_leave_drain_points_every_survivor_at_the_master():
    """Pages the leaver owned move to the master in every survivor's
    column, including pages that survivor never mapped."""
    sim, rt, pool = build_adaptive(nprocs=4, materialized=False)
    rt.malloc("grid", nbytes=PAGE * 8)
    leaver = rt.procs[3]
    owned = range(2, 6)
    for proc in rt.procs.values():  # as the adaptation-point GC leaves it
        proc.lrc.table.owner[owned.start:owned.stop] = [leaver.pid] * len(owned)
    rt.procs[1].lrc.readable(2)  # P1 maps one of them (invalid); P2 none
    assert not any(page in rt.procs[2].lrc.table for page in owned)
    result = {}

    def drain():
        result["counts"] = yield from absorb_leaver_pages(rt, leaver)

    sim.process(drain(), name="drain")
    sim.run()
    assert result["counts"] == (len(owned), len(owned))
    for pid in (0, 1, 2):
        column = rt.procs[pid].lrc.table.owner
        assert column[owned.start:owned.stop] == [MASTER] * len(owned), pid
        assert set(column) == {MASTER}
    assert all(rt.master.lrc.readable(page) for page in owned)
    assert not any(page in rt.procs[2].lrc.table for page in owned)


def test_every_column_is_the_master_after_a_live_restore():
    sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
    prog, *_ = counter_program(rt, n_iter=5)
    rt.run(prog)
    ck = rt.ckpt_mgr.checkpoints[-1]
    sim2, rt2, pool2 = build_adaptive(nprocs=3)
    counter_program(rt2, n_iter=5)
    npages = rt2.space.total_pages
    for pid, proc in rt2.procs.items():  # stale owners, mapped and not
        proc.lrc.readable(0)
        proc.lrc.table.owner[:] = [pid + 1] * npages
    restore_checkpoint(rt2, ck)
    for proc in rt2.procs.values():
        assert proc.lrc.table.owner == [MASTER] * npages
    assert all(rt2.master.lrc.readable(page) for page in range(npages))


def test_readable_maps_the_page_into_the_migration_image():
    sim, rt, pool = build_adaptive(nprocs=2, materialized=False)
    rt.malloc("grid", nbytes=PAGE * 4)
    proc = rt.procs[1]
    before = proc.resident_image_bytes()
    assert 2 not in proc.lrc.table
    assert not proc.lrc.readable(2)  # the master owns it: invalid here
    assert 2 in proc.lrc.table
    assert proc.resident_image_bytes() == before + rt.cfg.dsm.page_size
    assert not proc.lrc.readable(2)
    assert proc.resident_image_bytes() == before + rt.cfg.dsm.page_size

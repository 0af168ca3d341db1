"""Property-based consistency tests for the DSM.

The fundamental LRC guarantee for race-free programs: after
synchronization, every process observes exactly the memory a sequential
execution would produce.  Hypothesis generates random fork/join programs
(random disjoint write blocks per phase, random readers, random GC
placement, random team sizes) and the test replays each against a plain
numpy model.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsm import Protocol, SharedArray, TmkProgram

from ..helpers import build_system

ROWS = 24
COLS = 48  # 384-byte rows: several rows per page, unaligned partitions


@st.composite
def programs(draw):
    """A random race-free fork/join program description."""
    n_phases = draw(st.integers(1, 6))
    phases = []
    for _ in range(n_phases):
        kind = draw(st.sampled_from(["block_write", "scaled_write", "gc"]))
        if kind == "gc":
            phases.append(("gc",))
            continue
        # a random sub-range of rows each process updates (block partitioned)
        lo = draw(st.integers(0, ROWS - 1))
        hi = draw(st.integers(lo + 1, ROWS))
        value = draw(st.integers(1, 9))
        phases.append((kind, lo, hi, value))
    nprocs = draw(st.integers(1, 5))
    return nprocs, phases


def block(lo, hi, pid, nprocs):
    span = hi - lo
    base, extra = divmod(span, nprocs)
    s = lo + pid * base + min(pid, extra)
    e = s + base + (1 if pid < extra else 0)
    return s, e


def assert_dense_invariants(rt, after_gc=False):
    """The column layout's own invariants, for every process and page."""
    npages = rt.space.total_pages
    for proc in rt.procs.values():
        t = proc.lrc.table
        columns = [t.mapped, t.valid, t.mode, t.protocol, t.owner,
                   t.npending, *t.applied.values(), *t.pending.values()]
        assert {len(col) for col in columns} == {npages}
        assert len(t) == sum(t.mapped)
        for page in range(npages):
            cells = {w: col[page] for w, col in t.pending.items() if col[page]}
            # pending count per page == its non-zero pending cells
            assert t.npending[page] == len(cells)
            assert cells == t.pending_of(page)
            for writer, seq in cells.items():
                # a pending cell is never one the copy already reflects
                assert t.applied.get(writer, [0] * npages)[page] < seq
                assert writer != proc.pid
            if not t.mapped[page]:
                assert not t.valid[page] and not cells
                assert all(col[page] == 0 for col in t.applied.values())
        if after_gc:
            assert t.applied == {} and t.pending == {}
            assert not any(t.npending) and not any(t.mode)
            assert t.protocol == rt.space.protocols
    if after_gc:
        # every page valid somewhere, with an owner everyone agrees on,
        # mapped or not: the owner column is the whole page-location map
        columns = [proc.lrc.table.owner for proc in rt.procs.values()]
        for page in range(npages):
            owners = {col[page] for col in columns}
            assert len(owners) == 1, f"owner disagreement on page {page}"
            owner = owners.pop()
            assert owner in rt.procs, f"page {page} owned by gone pid {owner}"
            assert rt.procs[owner].lrc.readable(page), \
                f"owner of page {page} holds no valid copy"


def sequential_model(phases):
    grid = np.zeros((ROWS, COLS))
    for phase in phases:
        if phase[0] == "gc":
            continue
        kind, lo, hi, value = phase
        if kind == "block_write":
            grid[lo:hi] += value
        else:
            grid[lo:hi] *= 1.0 + value / 10.0
    return grid


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_programs_match_sequential(case):
    nprocs, phases = case
    sim, rt, pool = build_system(nprocs=nprocs)
    seg = rt.malloc("grid", shape=(ROWS, COLS), dtype="float64",
                    protocol=Protocol.MULTIPLE_WRITER)
    arr = SharedArray(seg)

    def make_region(kind, lo, hi, value):
        def region(ctx, pid, np_, args):
            s, e = block(lo, hi, pid, np_)
            if e <= s:
                return
            yield from ctx.access(arr.seg, reads=arr.rows(s, e), writes=arr.rows(s, e))
            v = arr.view(ctx)
            if kind == "block_write":
                v[s:e] += value
            else:
                v[s:e] *= 1.0 + value / 10.0

        return region

    regions = {}
    order = []
    for i, phase in enumerate(phases):
        if phase[0] == "gc":
            order.append(("gc", None))
            continue
        name = f"p{i}"
        regions[name] = make_region(*phase)
        order.append(("run", name))

    final = {}

    def driver(api):
        for kind, name in order:
            if kind == "gc":
                yield from api._runtime.gc_at_fork_point()
            else:
                yield from api.fork_join(name)
            assert_dense_invariants(rt, after_gc=(kind == "gc"))
        yield from api.ctx.access(arr.seg, reads=arr.full())
        final["grid"] = arr.view(api.ctx).copy()

    rt.run(TmkProgram(regions, driver, "hyp"))
    np.testing.assert_array_equal(final["grid"], sequential_model(phases))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 4))
def test_random_programs_with_adaptation(case, leave_after):
    """The same property must hold when the team shrinks mid-program."""
    nprocs, phases = case
    if nprocs < 2:
        nprocs = 2
    from ..helpers import build_adaptive

    sim, rt, pool = build_adaptive(nprocs=nprocs, extra_nodes=0)
    seg = rt.malloc("grid", shape=(ROWS, COLS), dtype="float64")
    arr = SharedArray(seg)

    def make_region(kind, lo, hi, value):
        def region(ctx, pid, np_, args):
            s, e = block(lo, hi, pid, np_)
            if e <= s:
                return
            yield from ctx.access(arr.seg, reads=arr.rows(s, e), writes=arr.rows(s, e))
            v = arr.view(ctx)
            if kind == "block_write":
                v[s:e] += value
            else:
                v[s:e] *= 1.0 + value / 10.0
            yield from ctx.compute(1e-4)

        return region

    regions = {}
    order = []
    for i, phase in enumerate(phases):
        if phase[0] == "gc":
            continue
        name = f"p{i}"
        regions[name] = make_region(*phase)
        order.append(name)
    if not regions:
        return

    final = {}

    def driver(api):
        for name in order:
            yield from api.fork_join(name)
            assert_dense_invariants(rt)
        yield from api.ctx.access(arr.seg, reads=arr.full())
        final["grid"] = arr.view(api.ctx).copy()

    # a leave lands somewhere inside the run
    sim.schedule(1e-5 + leave_after * 1.2e-4,
                 lambda: rt.submit_leave(nprocs - 1, grace=60.0))
    rt.run(TmkProgram(regions, driver, "hyp-adapt"))
    np.testing.assert_array_equal(final["grid"], sequential_model(phases))


class TestGcInvariant:
    """After any GC: every page valid somewhere, owner fields agree."""

    def test_valid_or_owned_everywhere(self):
        sim, rt, pool = build_system(nprocs=4)
        seg = rt.malloc("grid", shape=(64, 48), dtype="float64")
        arr = SharedArray(seg)

        def region(ctx, pid, np_, args):
            s, e = block(0, 64, pid, np_)
            yield from ctx.access(arr.seg, reads=arr.rows(s, e), writes=arr.rows(s, e))
            arr.view(ctx)[s:e] += 1

        def driver(api):
            yield from api.fork_join("w")
            yield from api._runtime.gc_at_fork_point()
            # invariant check runs post-GC with everyone quiesced
            assert_dense_invariants(rt, after_gc=True)
            for page in range(rt.space.total_pages):
                for p in rt.procs.values():
                    assert not p.lrc.table.pending_of(page)
            yield from api.fork_join("w")

        rt.run(TmkProgram({"w": region}, driver, "gc-invariant"))

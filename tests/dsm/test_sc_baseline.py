"""Tests for the IVY-style sequentially-consistent baseline DSM."""

import hashlib

import numpy as np
import pytest

from repro.apps import KERNELS, TINY, Jacobi
from repro.dsm import Protocol, ScRuntime, SharedArray, TmkRuntime
from repro.exec.spec import spec_from_preset

from ..helpers import build_system, run_phases

ALL = sorted(TINY)


def run_false_sharing():
    """Four processes write disjoint rows of one page, then all read it.
    Returns the run's result, the array and each process's final view."""
    sim, rt, pool = build_system(nprocs=4, runtime_cls=ScRuntime)
    seg = rt.malloc("v", shape=(64, 8), dtype="float64")  # one page
    arr = SharedArray(seg)

    def write_block(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
        arr.view(ctx)[lo:hi] = pid + 1.0

    got = {}

    def check(ctx, pid, nprocs, args):
        yield from ctx.access(arr.seg, reads=arr.full())
        got[pid] = arr.view(ctx).copy()

    result = run_phases(rt, {"w": write_block, "check": check}, ["w", "check"])
    return sim, result, arr, got


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_kernels_match_sequential_reference(self, name, nprocs):
        sim, rt, pool = build_system(nprocs=nprocs, runtime_cls=ScRuntime)
        app = KERNELS[name](**TINY[name])
        rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9), f"{name} diverged under SC"

    def test_false_sharing_merges_correctly(self):
        """Disjoint concurrent writes inside one page converge byte-exactly
        (the page travels with ownership, carrying earlier writers' bytes)."""
        _, _, arr, got = run_false_sharing()
        expected = np.zeros((64, 8))
        for pid in range(4):
            lo, hi = arr.block(pid, 4)
            expected[lo:hi] = pid + 1.0
        for pid in range(4):
            np.testing.assert_array_equal(got[pid], expected)

    def test_writes_survive_page_steals_across_iterations(self):
        sim, rt, pool = build_system(nprocs=3, runtime_cls=ScRuntime)
        seg = rt.malloc("v", shape=(48, 8), dtype="float64")
        arr = SharedArray(seg)

        def bump(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(
                arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi)
            )
            arr.view(ctx)[lo:hi] += 1.0

        got = {}

        def check(ctx, pid, nprocs, args):
            yield from ctx.access(arr.seg, reads=arr.full())
            got[pid] = arr.view(ctx).copy()

        run_phases(rt, {"b": bump, "check": check}, ["b"] * 10 + ["check"])
        np.testing.assert_array_equal(got[0], np.full((48, 8), 10.0))


def sc_outcome(case):
    """What an SC run models — runtime, per-kind traffic, pages and a
    digest of final shared memory — plus the engine's event count."""
    if case == "false-sharing":
        sim, result, _, got = run_false_sharing()
        arrays = [got[pid] for pid in sorted(got)]
    else:
        sim, rt, _ = build_system(nprocs=4, runtime_cls=ScRuntime)
        app = spec_from_preset("tiny", case, 4).build_app()
        result = rt.run(app.program(rt))
        arrays = [app.final[name] for name in sorted(app.final)]
    memory = hashlib.sha256()
    for array in arrays:
        memory.update(array.tobytes())
    traffic = result.traffic
    modelled = {
        "runtime_seconds": result.runtime_seconds,
        "messages": dict(sorted(traffic.by_kind_messages.items())),
        "bytes": dict(sorted(traffic.by_kind_bytes.items())),
        "pages": traffic.pages,
        "memory": memory.hexdigest()[:16],
    }
    return modelled, sim.events_executed


#: The SC protocol's timing, traffic and memory, value for value, as
#: recorded from the coroutine-per-request arms the callback arms replace
#: (kernel runtimes re-recorded at the Table-1-calibrated compute rates).
#: A mismatch means the SC model changed — fix the code, not this table.
SC_RECORDED = {
    "fft3d": {
        "runtime_seconds": 0.05416753703370427,
        "messages": {"fork": 18, "join_done": 18, "sc_data": 94, "sc_fetch": 19,
            "sc_fetch_ex": 29, "sc_grant": 4, "sc_invalidate": 8,
            "sc_invalidate_ack": 8, "sc_read_req": 12, "sc_write_req": 38, "stop": 3},
        "bytes": {"fork": 1908, "join_done": 1188, "sc_data": 388972, "sc_fetch": 950,
            "sc_fetch_ex": 1450, "sc_grant": 200, "sc_invalidate": 400,
            "sc_invalidate_ack": 368, "sc_read_req": 600, "sc_write_req": 1900,
            "stop": 138},
        "pages": 94,
        "memory": "7848e099f2a0c13c",
    },
    "gauss": {
        "runtime_seconds": 0.1850789087812948,
        "messages": {"fork": 141, "join_done": 141, "sc_data": 259, "sc_fetch": 38,
            "sc_fetch_ex": 81, "sc_grant": 15, "sc_invalidate": 43,
            "sc_invalidate_ack": 43, "sc_read_req": 55, "sc_write_req": 100, "stop": 3},
        "bytes": {"fork": 14946, "join_done": 9306, "sc_data": 1071742,
            "sc_fetch": 1900, "sc_fetch_ex": 4050, "sc_grant": 750,
            "sc_invalidate": 2150, "sc_invalidate_ack": 1978, "sc_read_req": 2750,
            "sc_write_req": 5000, "stop": 138},
        "pages": 259,
        "memory": "48b0bbcea0a70e84",
    },
    "jacobi": {
        "runtime_seconds": 0.08191916438143965,
        "messages": {"fork": 48, "join_done": 48, "sc_data": 165, "sc_fetch": 31,
            "sc_fetch_ex": 45, "sc_invalidate": 17, "sc_invalidate_ack": 17,
            "sc_read_req": 41, "sc_write_req": 48, "stop": 3},
        "bytes": {"fork": 5088, "join_done": 3168, "sc_data": 682770, "sc_fetch": 1550,
            "sc_fetch_ex": 2250, "sc_invalidate": 850, "sc_invalidate_ack": 782,
            "sc_read_req": 2050, "sc_write_req": 2400, "stop": 138},
        "pages": 165,
        "memory": "a577f7785de057a7",
    },
    "nbf": {
        "runtime_seconds": 0.06392000854849206,
        "messages": {"fork": 30, "join_done": 30, "sc_data": 110, "sc_fetch": 28,
            "sc_fetch_ex": 28, "sc_invalidate": 10, "sc_invalidate_ack": 10,
            "sc_read_req": 24, "sc_write_req": 30, "stop": 3},
        "bytes": {"fork": 3180, "join_done": 1980, "sc_data": 455180, "sc_fetch": 1400,
            "sc_fetch_ex": 1400, "sc_invalidate": 500, "sc_invalidate_ack": 460,
            "sc_read_req": 1200, "sc_write_req": 1500, "stop": 138},
        "pages": 110,
        "memory": "e9249fc16a2f28a9",
    },
    "false-sharing": {
        "runtime_seconds": 0.007216279999999998,
        "messages": {"fork": 6, "join_done": 6, "sc_data": 10, "sc_fetch": 3,
            "sc_fetch_ex": 2, "sc_read_req": 2, "sc_write_req": 3, "stop": 3},
        "bytes": {"fork": 636, "join_done": 396, "sc_data": 41380, "sc_fetch": 150,
            "sc_fetch_ex": 100, "sc_read_req": 100, "sc_write_req": 150, "stop": 138},
        "pages": 10,
        "memory": "a7ac9668fb94ba77",
    },
}

#: Engine events of the same runs; a change of request shape may only
#: lower them.
SC_EVENTS = {"fft3d": 766, "gauss": 2431, "jacobi": 1385, "nbf": 959, "false-sharing": 96}


class TestRecordedIdentity:
    @pytest.mark.parametrize("case", ALL + ["false-sharing"])
    def test_sc_run_matches_its_recording(self, case):
        modelled, events = sc_outcome(case)
        assert modelled == SC_RECORDED[case]
        assert events <= SC_EVENTS[case]


class TestProtocolShape:
    def test_no_diffs_ever(self):
        """SC has no twin/diff machinery at all."""
        sim, rt, pool = build_system(nprocs=4, runtime_cls=ScRuntime)
        app = Jacobi(**TINY["jacobi"])
        res = rt.run(app.program(rt))
        assert res.traffic.diffs == 0
        for proc in rt.procs.values():
            assert proc.stats.diffs_created == 0
            assert proc.stats.twins_created == 0

    def test_false_sharing_pingpong_costs_more_than_lrc(self):
        """The reason TreadMarks exists: unaligned Jacobi moves far more
        pages under write-invalidate than under LRC's multiple-writer."""

        def pages(runtime_cls):
            sim, rt, pool = build_system(nprocs=4, runtime_cls=runtime_cls)
            app = Jacobi(n=100, iterations=6)  # 800-B rows: false sharing
            res = rt.run(app.program(rt))
            assert app.verify(rtol=1e-7, atol=1e-9)
            return res.traffic.pages

        # the boundary pages ping-pong as whole pages every iteration under
        # SC; LRC ships them once and diffs thereafter
        assert pages(ScRuntime) > 2 * pages(TmkRuntime)

    def test_read_only_sharing_is_cheap(self):
        """Pages read by everyone and written once behave like LRC."""
        sim, rt, pool = build_system(nprocs=4, runtime_cls=ScRuntime)
        seg = rt.malloc("r", shape=(8, 512), dtype="float64")
        arr = SharedArray(seg)

        def init(ctx, pid, nprocs, args):
            if pid == 0:
                yield from ctx.access(arr.seg, writes=arr.full())
                arr.view(ctx)[:] = 7.0

        def read(ctx, pid, nprocs, args):
            yield from ctx.access(arr.seg, reads=arr.full())
            assert (arr.view(ctx) == 7.0).all()

        res = run_phases(rt, {"i": init, "r": read}, ["i"] + ["r"] * 5)
        # each proc fetches each of the 8 pages exactly once
        assert res.traffic.pages == 3 * 8

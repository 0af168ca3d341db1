"""Combining-tree synchronization (PROTOCOL.md §11).

Three layers of evidence that the tree is a pure *routing* change:

* Flat is the one-level tree: every golden scenario kind run with a tree
  whose radix covers the team reproduces the flat row's pinned digests.
* A Hypothesis property over the pure fold algebra — for random team
  sizes, radices, notice-run lengths, and arrival orders, the notice
  sequence the root ingests through the tree equals the one-level
  tree's, writer for writer, notice for notice.
* End-to-end runs — materialized programs produce the same shared memory
  with the tree on and off, GC rounds included, and tree runs are
  internally deterministic.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AdaptEvent, run, spec_from_preset
from repro.config import DsmParams, PerfParams, SystemConfig
from repro.dsm import Protocol, SharedArray
from repro.dsm.barrier import (
    children_of,
    in_subtree,
    parent_of,
    tree_children,
    vc_min,
    writer_sorted,
)
from repro.dsm.vectorclock import VectorClock

from ..golden import SCENARIOS, golden_row, pinned, run_scenario
from ..helpers import build_system, run_phases


# ---------------------------------------------------------------------------
# tree-layout helpers
# ---------------------------------------------------------------------------
class TestTreeLayout:
    def test_children_and_parent_agree(self):
        n = 13
        for radix in (2, 3, 4, n):
            children = [c for pid in range(n) for c in children_of(pid, n, radix)]
            assert sorted(children) == list(range(1, n))
            for pid in range(n):
                for child in children_of(pid, n, radix):
                    assert parent_of(child, radix) == pid
                    assert tree_children(list(range(n)), pid, radix) == list(
                        children_of(pid, n, radix))

    def test_subtrees_partition_the_team(self):
        n = 17
        for radix in (2, 3, 5):
            for pid in range(1, n):
                homes = [c for c in children_of(0, n, radix)
                         if in_subtree(pid, c, radix)]
                assert len(homes) == 1
                assert in_subtree(pid, 0, radix)

    def test_one_level_is_flat(self):
        """Radix = team size: the master parents every slave, which are
        leaves."""
        n = 9
        assert list(children_of(0, n, n)) == list(range(1, n))
        for pid in range(1, n):
            assert parent_of(pid, n) == 0
            assert not children_of(pid, n, n)

    def test_root_has_no_parent_calls_needed(self):
        pids = [0, 1, 2, 3]
        assert tree_children(pids, 0, 8) == [1, 2, 3]
        assert tree_children(pids, 3, 8) == []

    def test_vc_min_elementwise(self):
        a = VectorClock([3, 0, 5])
        b = VectorClock([1, 2, 5])
        assert list(vc_min(a, b).entries) == [1, 0, 5]


# ---------------------------------------------------------------------------
# the fold-equivalence property
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FakeNotice:
    """Just enough of a WriteNotice for ``writer_sorted``: a writer id
    and a per-writer sequence number."""

    proc: int
    seq: int


@st.composite
def teams(draw):
    nprocs = draw(st.integers(2, 24))
    radix = draw(st.integers(2, 5))
    run_lens = [draw(st.integers(0, 4)) for _ in range(nprocs)]
    shuffle_seed = draw(st.integers(0, 2**31 - 1))
    return nprocs, radix, run_lens, shuffle_seed


def _tree_combined(pids, pos, radix, runs, rng):
    """The upward payload of the process at ``pos``, arrivals shuffled.

    Mirrors the join path of ``_slave_main``: own notices plus each
    child subtree's combined chunk, regrouped by writer.  The protocol
    keys arrivals by pid before folding, so the chunk list is assembled
    in sorted-child order regardless of arrival order — the shuffle here
    exercises ``writer_sorted``'s invariance to chunk permutation.
    """
    own = runs[pids[pos]]
    chunks = [own]
    for child in sorted(tree_children(pids, pos, radix)):
        chunks.append(
            _tree_combined(pids, pids.index(child), radix, runs, rng)
        )
    rng.shuffle(chunks)
    return writer_sorted(chunks)


def _root_fold(pids, radix, runs, rng):
    """The notice sequence the root folds: its children's subtree chunks."""
    chunks = [
        _tree_combined(pids, pids.index(child), radix, runs, rng)
        for child in sorted(tree_children(pids, 0, radix))
    ]
    rng.shuffle(chunks)
    return writer_sorted(chunks)


@given(teams())
@settings(max_examples=200, deadline=None)
def test_tree_fold_sequence_equals_flat_fold(team):
    """The root ingests exactly the one-level tree's sequence — the flat
    fold whose outputs ``test_flat_is_the_one_level_tree`` pins."""
    nprocs, radix, run_lens, shuffle_seed = team
    import random

    rng = random.Random(shuffle_seed)
    pids = list(range(nprocs))
    runs = {
        pid: [FakeNotice(pid, seq) for seq in range(1, run_lens[pid] + 1)]
        for pid in pids
    }
    flat = _root_fold(pids, nprocs, runs, rng)
    # One level: the leaves' runs concatenated in pid order.
    assert flat == [n for pid in pids if pid != 0 for n in runs[pid]]
    assert _root_fold(pids, radix, runs, rng) == flat


@given(teams())
@settings(max_examples=100, deadline=None)
def test_every_subtree_chunk_is_writer_grouped(team):
    """Interior chunks are ascending-writer runs — the canonical form the
    run-batched ``apply_notices`` ingestion requires."""
    nprocs, radix, run_lens, shuffle_seed = team
    import random

    rng = random.Random(shuffle_seed)
    pids = list(range(nprocs))
    runs = {
        pid: [FakeNotice(pid, seq) for seq in range(1, run_lens[pid] + 1)]
        for pid in pids
    }
    for pos in range(1, nprocs):
        chunk = _tree_combined(pids, pos, radix, runs, rng)
        writers = [n.proc for n in chunk]
        assert writers == sorted(writers)
        for writer in set(writers):
            seqs = [n.seq for n in chunk if n.proc == writer]
            assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# flat is the one-level tree
# ---------------------------------------------------------------------------
#: A radix at least every golden team size, adaptive joins included.
ONE_LEVEL = {"barrier_tree": True, "barrier_radix": 64}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_flat_is_the_one_level_tree(scenario):
    """A tree whose radix covers the team is the paper's flat fold: every
    digest of the run, and its event count, equal the pinned flat row."""
    row = run_scenario(scenario, ONE_LEVEL)
    assert row.experiment.runtime.team.nprocs <= ONE_LEVEL["barrier_radix"]
    assert row.digests == pinned()[f"{scenario}/flat/obs-off"]


# ---------------------------------------------------------------------------
# end-to-end: same memory with the tree on and off
# ---------------------------------------------------------------------------
def _tree_cfg(radix=2, gc_limit=None):
    dsm = DsmParams() if gc_limit is None else DsmParams(gc_interval_limit=gc_limit)
    return SystemConfig().with_(
        perf=PerfParams(barrier_tree=True, barrier_radix=radix), dsm=dsm
    )


def _flat_cfg(gc_limit=None):
    dsm = DsmParams() if gc_limit is None else DsmParams(gc_interval_limit=gc_limit)
    return SystemConfig().with_(dsm=dsm)


def _block_program(rt, rounds=3):
    """Each process scales its row block; every round reads neighbours."""
    seg = rt.malloc("grid", shape=(24, 32), dtype="float64")
    arr = SharedArray(seg)

    def init(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(seg, writes=arr.full())
            if ctx.materialized:
                arr.view(ctx)[:] = 1.0

    def scale(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(
            seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi)
        )
        if ctx.materialized:
            arr.view(ctx)[lo:hi] *= float(pid + 2)
        yield from ctx.compute(1e-5)

    phases = {"init": init, "scale": scale}
    order = ["init"] + ["scale"] * rounds
    return arr, phases, order


def _final_grid(cfg, nprocs=5, rounds=3):
    sim, rt, pool = build_system(nprocs=nprocs, cfg=cfg)
    arr, phases, order = _block_program(rt, rounds)
    result = run_phases(rt, phases, order)
    grid = np.array(rt.procs[0].array(arr.seg))
    return grid, result


class TestBatchedFoldIdentity:
    """The master folds a barrier round's arrivals in one run-batched
    ingestion; the ``barrier`` rows of ``tests/golden.py``, captured
    from a per-arrival fold, pin its outputs."""

    @pytest.mark.parametrize("gc_limit", [None, 4])
    def test_bitwise_identical(self, gc_limit):
        row = golden_row("barrier/flat/obs-off" if gc_limit is None
                         else "barrier-gc/flat/obs-off")
        stats = row.experiment.run_result.per_process.values()
        assert sum(s.barriers for s in stats) > 0
        assert (sum(s.gcs for s in stats) > 0) == (gc_limit is not None)
        assert row.experiment.app.verify()


class TestTreeEndToEnd:
    @pytest.mark.parametrize("radix", [2, 3, 8])
    def test_same_memory_tree_vs_flat(self, radix):
        flat_grid, _ = _final_grid(_flat_cfg())
        tree_grid, _ = _final_grid(_tree_cfg(radix))
        np.testing.assert_array_equal(flat_grid, tree_grid)

    def test_same_memory_with_gc_rounds(self):
        flat_grid, flat_res = _final_grid(_flat_cfg(gc_limit=4), rounds=6)
        tree_grid, tree_res = _final_grid(_tree_cfg(2, gc_limit=4), rounds=6)
        np.testing.assert_array_equal(flat_grid, tree_grid)
        gcs = sum(s.gcs for s in tree_res.per_process.values())
        assert gcs > 0, "GC never fired; the tree GC relay went untested"

    def test_tree_run_is_deterministic(self):
        g1, r1 = _final_grid(_tree_cfg(2))
        g2, r2 = _final_grid(_tree_cfg(2))
        np.testing.assert_array_equal(g1, g2)
        assert r1.runtime_seconds == r2.runtime_seconds
        assert r1.traffic.messages == r2.traffic.messages

    def test_explicit_barrier_uses_tree(self):
        """ctx.barrier() engages the TreeBarrier state machine."""
        cfg = _tree_cfg(2)
        sim, rt, pool = build_system(nprocs=4, cfg=cfg)
        seg = rt.malloc("x", shape=(8, 8), dtype="float64")
        arr = SharedArray(seg)
        hits = []

        def phase(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(seg, writes=arr.rows(lo, hi))
            if ctx.materialized:
                arr.view(ctx)[lo:hi] = pid
            yield from ctx.barrier()
            yield from ctx.access(seg, reads=arr.full())
            if ctx.materialized:
                got = np.array(arr.view(ctx))
                for p in range(nprocs):
                    plo, phi = arr.block(p, nprocs)
                    assert (got[plo:phi] == p).all()
            hits.append(pid)

        run_phases(rt, {"phase": phase}, ["phase"])
        assert sorted(hits) == [0, 1, 2, 3]
        assert all(p.tree_barrier.round > 0 for p in rt.procs.values())


def _gauss_leave_join(label, **perf):
    # Gauss keeps pages under single-writer ownership, so the leaver owns
    # pages and the leave drain actually broadcasts OWNER_UPDATE.
    return spec_from_preset(
        "tiny", "gauss", 8, calibrated=False, adaptive=True, extra_nodes=2,
        events=(AdaptEvent("leave", 0.03, 3), AdaptEvent("join", 0.06)),
        label=label, perf=perf,
    )


class TestOwnerUpdateTreeRelay:
    """The leave drain's OWNER_UPDATE broadcast relays through the tree."""

    def test_every_survivor_learns_the_new_owner(self):
        handle = run(_gauss_leave_join("owner-relay", barrier_tree=True,
                                       barrier_radix=2))
        runtime = handle.experiment.runtime
        master = runtime.master
        for proc in runtime.procs.values():
            for page in range(runtime.space.total_pages):
                # Ownership agrees with the master everywhere: a page the
                # relay failed to announce would still name the leaver.
                assert proc.owner_of(page) == master.owner_of(page)

    def test_message_conservation_flat_vs_tree(self):
        # The relay retargets hops, it does not add copies: at most one
        # OWNER_UPDATE per survivor either way.  Tree mode can carry
        # *fewer* — a relay hop runs one latency after the drain, so the
        # rebuild may have renumbered pids away, and the relay drops
        # those instead of forwarding into the new pid space (flat mode
        # loses the same messages later, at the server loop's dst_pid
        # mismatch check).
        flat = run(_gauss_leave_join("owner-relay-flat"))
        tree = run(_gauss_leave_join("owner-relay-tree", barrier_tree=True,
                                     barrier_radix=2))
        flat_count = (flat.experiment.runtime.switch.stats.snapshot()
                      .by_kind_messages["owner_update"])
        tree_count = (tree.experiment.runtime.switch.stats.snapshot()
                      .by_kind_messages["owner_update"])
        assert flat_count > 0
        assert 0 < tree_count <= flat_count

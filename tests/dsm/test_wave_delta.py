"""One notice scan per fan-out wave: ``TreeBarrier.notices_unknown_to_each``
against the per-clock ``notices_unknown_to`` it stands for, over every
kind of child clock a wave meets."""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.dsm import IntervalNotice, NoticeBatch, Protocol, VectorClock
from repro.dsm.runs import page_spans

from ..helpers import build_system

PAGE = 4096
WIDTH = 4
NPAGES = 8

#: How a child clock relates to the wave's ``since`` clock.
KINDS = ("equal", "ticked", "adopted", "scan-covers", "misses", "narrow", "wide")


def _receiver():
    sim, rt, pool = build_system(nprocs=WIDTH, materialized=False)
    rt.malloc("seg", nbytes=PAGE * NPAGES, protocol=Protocol.MULTIPLE_WRITER)
    return rt.procs[0]


@st.composite
def known_intervals(draw):
    """Each writer's intervals (seqs with gaps), delivered in batches that
    may repeat and reorder them."""
    pool = []
    for proc in range(WIDTH):
        seqs = draw(st.lists(st.integers(1, 8), unique=True, max_size=5))
        for seq in seqs:
            pages = draw(st.lists(st.integers(0, NPAGES - 1), min_size=1,
                                  max_size=3, unique=True))
            vc = [0] * WIDTH
            vc[proc] = seq
            pool.append(IntervalNotice(proc, seq, VectorClock(vc), page_spans(pages)))
    if not pool:
        return []
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=3))


_entries = st.lists(st.integers(0, 9), min_size=WIDTH, max_size=WIDTH)


@st.composite
def child_clock(draw, since):
    kind = draw(st.sampled_from(KINDS))
    if kind == "equal":
        return since.snapshot()
    if kind == "ticked":
        # a leaf's JOIN_DONE: the wave's clock plus its own tick
        vc = since.snapshot()
        vc.tick(draw(st.integers(0, WIDTH - 1)))
        return vc
    if kind == "adopted":
        vc = VectorClock(draw(_entries))
        vc.merge(since)
        for slot in draw(st.lists(st.integers(0, WIDTH - 1), max_size=2)):
            vc.tick(slot)
        return vc
    if kind == "scan-covers":
        bumps = draw(_entries)
        return VectorClock([a + b for a, b in zip(since.entries, bumps)])
    if kind == "misses":
        return VectorClock(draw(_entries))
    width = WIDTH - 1 if kind == "narrow" else WIDTH + 1
    return VectorClock(draw(st.lists(st.integers(0, 9), min_size=width,
                                     max_size=width)))


@st.composite
def waves(draw):
    since = VectorClock(draw(_entries))
    if draw(st.booleans()):
        since.tick(draw(st.integers(0, WIDTH - 1)))  # a stamp of its own
    children = draw(st.lists(child_clock(since), min_size=1, max_size=8))
    return (None if draw(st.integers(0, 5)) == 0 else since), children


@settings(max_examples=150, deadline=None)
@given(known_intervals(), waves())
def test_each_leg_equals_its_own_scan(batches, wave):
    me = _receiver()
    for ivs in batches:
        me.apply_notices(NoticeBatch(ivs), VectorClock.zeros(WIDTH))
    since, vcs = wave
    legs = me.tree_barrier.notices_unknown_to_each(vcs, since)
    assert len(legs) == len(vcs)
    for vc, leg in zip(vcs, legs):
        want = me.notices_unknown_to(vc)
        assert [id(iv) for iv in leg.intervals] == [id(iv) for iv in want.intervals]
        assert len(leg) == len(want)
    if since is not None:
        shared = [leg for vc, leg in zip(vcs, legs) if vc.stamp == since.stamp]
        assert all(leg is shared[0] for leg in shared)


def test_children_at_the_wave_clock_share_one_batch():
    me = _receiver()
    ivs = [IntervalNotice(p, 1, VectorClock([int(q == p) for q in range(WIDTH)]),
                          page_spans([p])) for p in range(WIDTH)]
    me.apply_notices(NoticeBatch(ivs), VectorClock([1] * WIDTH))
    since = VectorClock.zeros(WIDTH)
    idle, writer = since.snapshot(), since.snapshot()
    writer.tick(2)
    legs = me.tree_barrier.notices_unknown_to_each([idle, since.snapshot(), writer], since)
    assert legs[0] is legs[1] and len(legs[0]) == WIDTH
    assert [iv.proc for iv in legs[2].intervals] == [0, 1, 3]


#: Attribute names of a :class:`NoticeBatch`.
BATCH_FIELDS = {"intervals", "count"}
MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "sort",
            "reverse", "__setitem__", "__delitem__", "__iadd__"}


def _batch_mutations(tree):
    """``(line, text)`` of every store to, or in-place change of, an
    attribute named like a batch field."""
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in BATCH_FIELDS:
                found.append((node.lineno, ast.unparse(node)))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in BATCH_FIELDS):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_source_mutates_a_notice_batch_once_built():
    """Legs of one wave share a batch, so none may change after
    ``NoticeBatch.__init__``: no store to ``.intervals`` / ``.count`` and no
    in-place list method on them anywhere in the package, constructors
    (which build their own object) aside."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                cls.body = [f for f in cls.body
                            if not (isinstance(f, ast.FunctionDef) and f.name == "__init__")]
        offenders += [(path.relative_to(root), *hit) for hit in _batch_mutations(tree)]
    assert offenders == []


def test_the_mutation_scan_sees_the_shapes_it_forbids():
    tree = ast.parse("b.intervals.append(iv)\nb.count += 1\nb.intervals[0] = iv\n"
                     "x = b.intervals[1:]\nobs.count('n', 1)")
    assert sorted(line for line, _ in _batch_mutations(tree)) == [1, 2, 3]

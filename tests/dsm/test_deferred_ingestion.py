"""Deferred notice ingestion (docs/PROTOCOL.md §6): ``apply_notices``
merges the sender's clock and queues the batch; the page table and the
known buckets take it in only when someone reads them.  Checked here
against a reference that ingests every batch on arrival, over random
notice streams interleaved with own writes, closes and reads; then that
idle processes really never pay; then, from the source, that nothing
reads the raw state past the settle."""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.apps import Jacobi
from repro.dsm import IntervalNotice, NoticeBatch, VectorClock
from repro.dsm.page import MW, SW
from repro.dsm.runs import page_spans
from repro.network import message as mk

from ..helpers import build_system
from .test_page_runs import ME, PAGE, TOTAL, _lay_down, _receiver, _span, receiver_state, state

#: Writers other than the receiver ``ME``.
FOREIGN = (0, 1)


def _eager_apply(me, notices, sender_vc):
    """The reference: ingest on arrival."""
    me.apply_notices(notices, sender_vc)
    me.table  # noqa: B018 - the read settles


def _segment_of(me, page):
    return next(seg for seg in me.space.segments.values() if page in seg.pages)


def _own_write(me, a, b):
    """Write, through ``access``, every page of ``[a, b)`` that is
    readable here (so the write faults nothing), one access per stretch
    of such pages inside one segment.  The pages written, ascending."""
    written = [page for page in range(a, b) if me.readable(page)]
    stretches = []
    for page in written:
        if stretches and stretches[-1][1] == page \
                and _segment_of(me, page) is _segment_of(me, stretches[-1][0]):
            stretches[-1][1] = page + 1
        else:
            stretches.append([page, page + 1])
    for start, stop in stretches:
        seg = _segment_of(me, start)
        lo = (start - seg.pages.start) * PAGE
        for _ in me.access(seg, writes=((lo, lo + (stop - start) * PAGE),)):
            raise AssertionError("a write to readable pages must not fault")
    return written


def _closed(me, batch):
    """What a close left: its notices and its log record's runs."""
    out = []
    for iv in batch.intervals:
        rec = me.log.records_for(iv.runs[0].start, iv.seq - 1, iv.seq)[0]
        out.append((iv.proc, iv.seq, iv.runs, list(iv.vc.entries), rec.runs,
                    rec.diff_runs))
    return out


@st.composite
def foreign_pool(draw):
    """Each foreign writer's intervals, one to three runs each; their
    clocks' entry for ``ME`` decides the demotion rule."""
    pool = []
    for proc in FOREIGN:
        for seq in range(1, draw(st.integers(0, 4)) + 1):
            pages = {p for a, b in draw(st.lists(_span, min_size=1, max_size=3))
                     for p in range(a, b)}
            vc = [draw(st.integers(0, 3)) for _ in range(3)]
            vc[proc] = seq
            pool.append(IntervalNotice(proc, seq, VectorClock(vc), page_spans(pages)))
    return pool


_READS = ("table", "readable", "owner_of")

#: One step: a delivery (pool indices, with repeats and out of order, and
#: how many of our own latest closed intervals it echoes back), an own
#: write, an interval close, a sync, or a read.
_op = st.one_of(
    st.tuples(st.just("deliver"), st.lists(st.integers(0, 99), max_size=6),
              st.integers(0, 2)),
    st.tuples(st.just("write"), _span),
    st.tuples(st.just("close")),
    st.tuples(st.just("sync")),
    st.tuples(st.just("read"), st.sampled_from(_READS), st.integers(0, TOTAL - 1)),
)


def snapshot(me):
    """:func:`~.test_page_runs.state`, our own intervals by content (the
    two receivers close equal intervals, not the same objects)."""
    cols = list(state(me))
    cols[9] = [(w, [(iv.seq, iv.runs) if w == ME else (iv.seq, id(iv)) for iv in bucket])
               for w, bucket in me._known.items()]
    return cols


def _read(me, kind, page):
    if kind == "table":
        return snapshot(me)
    if kind == "readable":
        return me.readable(page)
    return me.owner_of(page)


@settings(max_examples=80, deadline=None)
@given(receiver_state(), foreign_pool(), st.lists(_op, min_size=1, max_size=14))
def test_deferred_ingestion_matches_ingestion_on_arrival(setup, pool, ops):
    lazy, eager = _receiver(), _receiver()
    _lay_down(lazy, setup)
    _lay_down(eager, setup)
    for op in ops:
        if op[0] == "deliver":
            ivs = [pool[i % len(pool)] for i in op[1]] if pool else []
            sender = VectorClock([max([iv.vc.entries[w] for iv in ivs], default=0)
                                  if w != ME else 0 for w in range(3)])
            for me, apply in ((lazy, type(lazy).apply_notices), (eager, _eager_apply)):
                # the master echoes back our own latest intervals
                own = me._buckets.get(ME, [])
                apply(me, NoticeBatch(ivs + own[len(own) - op[2]:] if op[2] else ivs),
                      sender)
            assert list(lazy.vc.entries) == list(eager.vc.entries)
            continue
        if op[0] == "write":
            assert _own_write(lazy, *op[1]) == _own_write(eager, *op[1])
        elif op[0] == "close":
            assert _closed(lazy, lazy.close_interval()) \
                == _closed(eager, eager.close_interval())
        elif op[0] == "sync":
            assert _closed(lazy, lazy.sync_notices()) == _closed(eager, eager.sync_notices())
        else:
            assert _read(lazy, *op[1:]) == _read(eager, *op[1:])
            assert not lazy._deferred
            assert snapshot(lazy) == snapshot(eager)
    assert snapshot(lazy) == snapshot(eager)


def _demotion_pair():
    """Two receivers that own single-writer page ``page`` and have it in
    their open write set; a foreign notice for it has just arrived, on
    one deferred, on the other ingested."""
    lazy, eager = _receiver(), _receiver()
    page = TOTAL - 3
    for me in (lazy, eager):
        me.table.map(page, True)
        me.table.owner[page] = ME
        assert _own_write(me, page, page + 1) == [page]
        assert me.table.protocol[page] == SW
    notice = NoticeBatch([IntervalNotice(1, 1, VectorClock([0, 1, 0]),
                                         (range(page, page + 1),))])
    lazy.apply_notices(notice, VectorClock([0, 1, 0]))
    _eager_apply(eager, notice, VectorClock([0, 1, 0]))
    assert lazy._deferred and eager.table.protocol[page] == MW
    return lazy, eager, page


def test_a_notice_for_a_page_in_the_open_write_set_demotes_it_when_read():
    lazy, eager, page = _demotion_pair()
    assert lazy.readable(page) == eager.readable(page)
    assert lazy.table.protocol[page] == MW
    assert snapshot(lazy) == snapshot(eager)


def test_a_close_settles_before_it_takes_the_write_set():
    """The close is the first read: the deferred notice must still find
    the page in the open write set, so the page is multiple-writer when
    the interval records its diff runs."""
    lazy, eager, page = _demotion_pair()
    batch = lazy.close_interval()
    assert _closed(lazy, batch) == _closed(eager, eager.close_interval())
    assert [run[:2] for run in lazy.log.records_for(page, 0, 1)[0].diff_runs] \
        == [(page, page + 1)]
    assert snapshot(lazy) == snapshot(eager)


def test_idle_processes_never_settle():
    """Traced Jacobi 18²×2 on 32 processes: the 16 interior rows go to 16
    processes (the master among them), so 15 slaves have empty blocks and
    touch no shared page.  Each receives every fork's notices and ingests
    none: no foreign writer's bucket, one deferred batch per fork.  The
    first read of its page table ingests them all."""
    sim, rt, pool = build_system(nprocs=32, materialized=False)
    rt.run(Jacobi(n=18, iterations=2).program(rt))
    slaves = rt.team.nprocs - 1
    forks = rt.switch.stats.snapshot().by_kind_messages[mk.FORK] // slaves
    assert forks == 4
    idle = [proc for proc in rt.procs.values() if proc._deferred]
    assert len(idle) == 15
    for proc in idle:
        assert set(proc._buckets) <= {proc.pid}
        assert len(proc._deferred) == forks
        assert proc.table is proc._table
        assert not proc._deferred and set(proc._buckets) - {proc.pid}


#: The raw state behind the settling properties -> the only functions
#: that may touch it: the constructor, the property, the settle and its
#: helpers, and the two own-bucket sites.  ``apply_notices`` alone adds
#: to the deferred list, so it alone has to drop the cached ``table``.
RAW = {
    "_table": {"__init__", "table", "_settle", "_ingest_run", "_set_owner"},
    "_buckets": {"__init__", "_known", "_settle", "close_interval", "sync_notices"},
    "_deferred": {"__init__", "table", "_known", "apply_notices", "_settle"},
}


def _raw_touches(tree):
    """``(attribute, function, line)`` of every touch of the raw state
    outside the functions allowed it (``function`` is None at module
    level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in RAW \
                and func not in RAW[node.attr]:
            found.append((node.attr, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_settle_reads_the_raw_state():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        offenders += [(str(path.relative_to(root)), *hit)
                      for hit in _raw_touches(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_raw_state_scan_sees_what_it_forbids():
    tree = ast.parse("def access(self):\n    return self._table.valid\n"
                     "def _settle(self):\n    t = self._table\n"
                     "x = proc._buckets\n"
                     "def close_interval(self):\n    self._buckets[0] = self._deferred\n")
    assert _raw_touches(tree) == [("_table", "access", 2), ("_buckets", None, 5),
                                  ("_deferred", "close_interval", 7)]

"""Deferred notice ingestion (docs/PROTOCOL.md §6): ``apply_notices``
merges the sender's clock and queues the batch; the page table and the
known buckets take it in only when someone reads them.  Checked here on
the bare consistency core against a reference that ingests every batch
on arrival, over random notice streams interleaved with own writes,
closes and reads, and across a GC; then that idle processes really never
pay; then, from the source, that only the core touches the raw state and
that the core imports neither the simulator nor the network."""

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


def _own_write(me, a, b):
    """Write every page of ``[a, b)`` that is readable here (so the write
    faults nothing), as the access path's fault-free arm does: a stretch
    of such pages new to the write set is prepared as one run, any other
    page by itself.  The pages written, ascending."""
    written = [page for page in range(a, b) if me.readable(page)]
    stretches = []
    for page in written:
        if stretches and stretches[-1][1] == page:
            stretches[-1][1] = page + 1
        else:
            stretches.append([page, page + 1])
    wset = me.writes
    for start, stop in stretches:
        if not wset.overlaps(start, stop):
            me.prepare_run(start, stop)
            wset.add(start, stop, [(0, PAGE)])
            continue
        for page in range(start, stop):
            me.prepare_write(page, not wset.contains(page))
        wset.write(start, stop, [(0, PAGE)])
    return written


def _close(me):
    return me.close_interval()[0]


def _sync(me):
    _close(me)
    return me.unsent_own_notices()


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
               for w, bucket in me.known.items()]
    return cols


def _read(me, kind, page):
    if kind == "table":
        return snapshot(me)
    if kind == "readable":
        return me.readable(page)
    return me.owner_of(page)


def _deliver(lazy, eager, ivs, echoed=0):
    """Deliver ``ivs`` to both receivers, deferred on ``lazy`` and
    ingested on arrival on ``eager``; the master echoes back our own
    ``echoed`` latest intervals."""
    sender = VectorClock([max([iv.vc.entries[w] for iv in ivs], default=0)
                          if w != ME else 0 for w in range(3)])
    for me, apply in ((lazy, type(lazy).apply_notices), (eager, _eager_apply)):
        own = me._buckets.get(ME, [])
        apply(me, NoticeBatch(ivs + own[len(own) - echoed:] if echoed else ivs), sender)
    assert list(lazy.vc.entries) == list(eager.vc.entries)


def _step(lazy, eager, pool, op):
    """One of the :data:`_op` steps on both receivers."""
    if op[0] == "deliver":
        _deliver(lazy, eager, [pool[i % len(pool)] for i in op[1]] if pool else [], op[2])
    elif op[0] == "write":
        assert _own_write(lazy, *op[1]) == _own_write(eager, *op[1])
    elif op[0] == "close":
        assert _closed(lazy, _close(lazy)) == _closed(eager, _close(eager))
    elif op[0] == "sync":
        assert _closed(lazy, _sync(lazy)) == _closed(eager, _sync(eager))
    else:
        assert _read(lazy, *op[1:]) == _read(eager, *op[1:])
        assert not lazy._deferred
        assert snapshot(lazy) == snapshot(eager)


@settings(max_examples=80, deadline=None)
@given(receiver_state(), foreign_pool(), st.lists(_op, min_size=1, max_size=14))
def test_deferred_ingestion_matches_ingestion_on_arrival(setup, pool, ops):
    lazy, eager = _receiver(), _receiver()
    _lay_down(lazy, setup)
    _lay_down(eager, setup)
    for op in ops:
        _step(lazy, eager, pool, op)
    assert snapshot(lazy) == snapshot(eager)


@settings(max_examples=60, deadline=None)
@given(receiver_state(), foreign_pool(),
       st.lists(_op.filter(lambda op: op[0] != "read"), max_size=14))
def test_a_gc_leaves_what_it_leaves_after_ingestion_on_arrival(setup, pool, ops):
    """A GC round on the bare core: the barrier's close, its release's
    notices (deferred on one receiver), then the new-owner decision —
    ``gc_new_owners`` painted as ``DsmProcess.gc_flush`` paints it — and
    the reset.  The GC's read of the known intervals is the lazy
    receiver's first since the release, so it settles there."""
    lazy, eager = _receiver(), _receiver()
    setup = setup[:2] + ([],)  # no laid-down write set: we win only pages we wrote
    _lay_down(lazy, setup)
    _lay_down(eager, setup)
    for op in ops:
        _step(lazy, eager, pool, op)
    _step(lazy, eager, pool, ("close",))
    _deliver(lazy, eager, list(pool), echoed=1)
    assert bool(lazy._deferred) == bool(pool or lazy._buckets.get(ME))
    assert lazy.gc_owned_spans() == eager.gc_owned_spans()
    assert lazy._gc_pending_owners == eager._gc_pending_owners
    assert snapshot(lazy) == snapshot(eager)
    for me in (lazy, eager):
        me.gc_reset(3)
        assert not me.known and me.epoch == 1
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
    assert _closed(lazy, _close(lazy)) == _closed(eager, _close(eager))
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
    idle = [proc.lrc for proc in rt.procs.values() if proc.lrc._deferred]
    assert len(idle) == 15
    for lrc in idle:
        assert set(lrc._buckets) <= {lrc.pid}
        assert len(lrc._deferred) == forks
        assert lrc.table is lrc._table
        assert not lrc._deferred and set(lrc._buckets) - {lrc.pid}


#: The raw state behind the core's settling reads (``table``, ``known``).
RAW = ("_table", "_buckets", "_deferred")

#: The one module that may touch it.
CORE = "dsm/consistency.py"


def _raw_touches(tree):
    """``(attribute, line)`` of every touch of the raw state in ``tree``."""
    return sorted((node.attr, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in RAW)


def test_only_the_core_touches_the_raw_state():
    root = Path(repro.__file__).parent
    touching = [str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
                if _raw_touches(ast.parse(path.read_text()))]
    assert touching == [CORE]


def test_the_raw_state_scan_sees_what_it_forbids():
    """A process that reads the core's page table past the settle."""
    source = (Path(repro.__file__).parent / "dsm/process.py").read_text()
    mutant = source.replace("table = lrc.table", "table = lrc._table", 1)
    assert mutant != source and not _raw_touches(ast.parse(source))
    assert [attr for attr, _ in _raw_touches(ast.parse(mutant))] == ["_table"]


def _imports(path):
    """The modules ``path`` imports, relative ones with their dots
    (``from . import diffs`` is ``.diffs``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            found |= ({dots + node.module} if node.module
                      else {dots + alias.name for alias in node.names})
    return found


def _resolve(path, module):
    """The file of the relative ``module`` imported by ``path``."""
    level = len(module) - len(module.lstrip("."))
    base = path.parent
    for _ in range(level - 1):
        base = base.parent
    target = base.joinpath(*module.lstrip(".").split("."))
    return target.with_suffix(".py") if target.with_suffix(".py").exists() \
        else target / "__init__.py"


def test_the_core_imports_no_simulator_and_no_network():
    core = Path(repro.__file__).parent / CORE
    assert sorted(_imports(core)) == [
        "..errors", ".diffs", ".gc", ".intervals", ".memory", ".page", ".runs",
        ".team", ".vectorclock", "__future__", "bisect", "functools",
        "itertools", "numpy", "operator", "typing"]
    # ... and nothing it imports from the package does either.
    src = Path(repro.__file__).parent
    seen, todo = set(), [core]
    while todo:
        path = todo.pop()
        if path not in seen:
            seen.add(path)
            todo += [_resolve(path, m) for m in _imports(path) if m.startswith(".")]
    reached = sorted(str(path.relative_to(src)) for path in seen)
    assert not [name for name in reached if name.startswith(("simcore", "network"))]
    assert "dsm/process.py" not in reached
    assert "Message" not in core.read_text()

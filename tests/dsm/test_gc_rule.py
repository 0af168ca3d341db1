"""Property tests for the GC new-owner rule (every process must compute
the same owners from the same notices, and owners must be writers).

The rule returns page runs with their writers, to be stored in order onto
an owner column; the properties are stated over the painted column,
against the per-page rule over each interval's ``(interval, page)``
pairs, which this module keeps as the oracle."""

from hypothesis import given, strategies as st

from repro.dsm import IntervalNotice, VectorClock, gc_new_owners
from repro.dsm.runs import page_spans

#: Pages the notices may name; the painted column is this wide.
PAGES = 7
#: Owner of a page nobody wrote, before and after painting.
UNWRITTEN = -1


def make_interval(proc, seq, pages, vc_entries):
    return IntervalNotice(proc, seq, VectorClock(vc_entries), page_spans(pages))


@st.composite
def notice_sets(draw):
    width = draw(st.integers(1, 5))
    n = draw(st.integers(0, 25))
    notices = []
    per_proc_seq = [0] * width
    for _ in range(n):
        proc = draw(st.integers(0, width - 1))
        per_proc_seq[proc] += 1
        seq = per_proc_seq[proc]
        pages = draw(st.sets(st.integers(0, PAGES - 1), min_size=1, max_size=4))
        vc = [0] * width
        vc[proc] = seq
        # the writer may have seen some other intervals
        for other in range(width):
            if other != proc:
                vc[other] = draw(st.integers(0, per_proc_seq[other]))
        notices.append(make_interval(proc, seq, pages, vc))
    return notices


def views(intervals):
    """``(interval, page)`` for every page every interval wrote."""
    return [(iv, page) for iv in intervals for pages in iv.runs for page in pages]


def per_page_rule(intervals):
    """The oracle: ``{page: owner}``, the writer of each written page's
    happens-before-latest interval, found one (interval, page) at a time."""
    best = {}
    for iv, page in views(intervals):
        key = (*iv.vc.sort_key(), -iv.proc)
        prev = best.get(page)
        if prev is None or key > prev:
            best[page] = key
    return {page: -key[-1] for page, key in best.items()}


def painted(intervals):
    """An owner column after storing ``gc_new_owners``' runs in order."""
    column = [UNWRITTEN] * PAGES
    for pages, owner in gc_new_owners(intervals):
        column[pages.start:pages.stop] = [owner] * len(pages)
    return column


@given(notice_sets())
def test_matches_the_per_page_rule(intervals):
    expected = per_page_rule(intervals)
    assert painted(intervals) == [expected.get(p, UNWRITTEN) for p in range(PAGES)]


@given(notice_sets())
def test_owner_is_always_a_writer_of_the_page(intervals):
    notices = views(intervals)
    for page, owner in enumerate(painted(intervals)):
        if owner != UNWRITTEN:
            assert owner in {iv.proc for iv, p in notices if p == page}


@given(notice_sets())
def test_every_written_page_gets_an_owner(intervals):
    covered = {p for pages, _ in gc_new_owners(intervals) for p in pages}
    assert covered == {page for _, page in views(intervals)}
    owners = painted(intervals)
    assert UNWRITTEN not in [owners[p] for p in covered]


@given(notice_sets())
def test_deterministic_regardless_of_notice_order(notices):
    assert painted(notices) == painted(list(reversed(notices)))


@given(notice_sets())
def test_happens_before_winner(intervals):
    """If one writer's interval strictly dominates every other notice for
    the page, that writer owns it."""
    owners = painted(intervals)
    by_page = {}
    for iv, page in views(intervals):
        by_page.setdefault(page, []).append(iv)
    for page, ns in by_page.items():
        dominators = [
            n for n in ns
            if all(n is m or (n.vc.covers(m.vc) and n.vc != m.vc) for m in ns)
        ]
        if dominators:
            assert owners[page] == dominators[0].proc

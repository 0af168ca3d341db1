"""Property tests for the GC new-owner rule (every process must compute
the same owners from the same notices, and owners must be writers).

The rule consumes interval-granular notices; the properties are stated
over their per-page ``(interval, page)`` pairs."""

from hypothesis import given, strategies as st

from repro.dsm import IntervalNotice, VectorClock, gc_new_owners
from repro.dsm.runs import page_spans


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
        pages = draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))
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


@given(notice_sets())
def test_owner_is_always_a_writer_of_the_page(intervals):
    owners = gc_new_owners(intervals)
    notices = views(intervals)
    for page, owner in owners.items():
        writers = {iv.proc for iv, p in notices if p == page}
        assert owner in writers


@given(notice_sets())
def test_every_written_page_gets_an_owner(intervals):
    owners = gc_new_owners(intervals)
    assert set(owners) == {page for _, page in views(intervals)}


@given(notice_sets())
def test_matches_the_per_page_rule_in_value_and_order(intervals):
    """The run-level rule returns what a per-page scan does, page order
    (first naming, which sets ``owners``' insertion order) included."""
    best = {}
    for iv, page in views(intervals):
        key = (*iv.vc.sort_key(), -iv.proc)
        prev = best.get(page)
        if prev is None or key > prev:
            best[page] = key
    expected = [(page, -key[-1]) for page, key in best.items()]
    assert list(gc_new_owners(intervals).items()) == expected


@given(notice_sets())
def test_deterministic_regardless_of_notice_order(notices):
    a = gc_new_owners(notices)
    b = gc_new_owners(list(reversed(notices)))
    assert a == b  # as maps: the page order follows the notice order


@given(notice_sets())
def test_happens_before_winner(intervals):
    """If one writer's interval strictly dominates every other notice for
    the page, that writer owns it."""
    owners = gc_new_owners(intervals)
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

"""Unit tests for interval records, the interval log, and DSM statistics."""

import pytest

from repro.dsm import DsmStats, IntervalLog, IntervalRecord, RunResult, VectorClock
from repro.dsm.intervals import Diff
from repro.dsm.runs import encode, expand, spans

from ..golden import golden_row


def record(proc, seq, pages, width=2):
    vc = VectorClock.zeros(width)
    vc.entries[proc] = seq
    rec = IntervalRecord(proc=proc, seq=seq, vc=vc,
                         runs=encode(dict.fromkeys(pages, [(0, 16)])))
    for page in pages:
        rec.diffs[page] = Diff(proc=proc, seq=seq, page=page, vc=vc.copy(),
                               ranges=[(0, 16)])
    return rec


class TestIntervalRecord:
    def test_notices_sorted_by_page(self):
        rec = record(1, 3, [7, 2, 5])
        notices = [(rec.proc, rec.seq, page) for page in expand(rec.runs)]
        assert [page for _, _, page in notices] == [2, 5, 7]
        assert all(proc == 1 and seq == 3 for proc, seq, _ in notices)


class TestIntervalLog:
    def test_add_get(self):
        log = IntervalLog(0)
        rec = record(0, 1, [4])
        log.add(rec)
        assert log.records_for(4, 0, 1) == [rec]
        assert len(log) == 1

    def test_duplicate_seq_rejected(self):
        log = IntervalLog(0)
        log.add(record(0, 1, [4]))
        with pytest.raises(ValueError):
            log.add(record(0, 1, [5]))

    def test_out_of_order_seq_rejected(self):
        """Own closes carry fresh ticks: the log only ever appends."""
        log = IntervalLog(0)
        log.add(record(0, 2, [4]))
        with pytest.raises(ValueError):
            log.add(record(0, 1, [4]))
        assert len(log) == 1

    def test_diffs_for_range(self):
        log = IntervalLog(0)
        for seq in (1, 2, 3, 4):
            log.add(record(0, seq, [10] if seq != 3 else [11]))
        diffs = log.diffs_for(10, 0, 4)
        assert [d.seq for d in diffs] == [1, 2, 4]
        [rec4] = log.records_for(10, 3, 4)
        assert log.diffs_for(10, 2, 4) == [rec4.diffs[10]]
        assert log.diffs_for(99, 0, 4) == []

    def test_clear(self):
        log = IntervalLog(0)
        log.add(record(0, 1, [4]))
        log.clear()
        assert len(log) == 0
        log.add(record(0, 1, [4]))  # a new epoch restarts at seq 1
        assert len(log) == 1

    def test_clear_empties_every_page_index(self):
        log = IntervalLog(0)
        log.add(record(0, 1, [4, 5]))
        log.clear()
        assert log.records_for(4, 0, 9) == []
        assert log.diffs_for(5, 0, 9) == []

    def test_multi_page_record_indexed_under_each_page(self):
        log = IntervalLog(0)
        rec = record(0, 1, [0, 1])
        log.add(rec)
        assert log.records_for(0, 0, 1) == log.records_for(1, 0, 1) == [rec]
        assert log.records_for(2, 0, 1) == []
        assert len(log) == 1  # one record, however many pages it wrote

    def test_traced_diffs_are_wrapped_on_request(self):
        """A traced record declares its diffs as runs; ``diffs_for`` wraps
        a page's on first request and hands out that object afterwards."""
        log = IntervalLog(0)
        vc = VectorClock([1, 0])
        runs = ((3, 6, [(0, 16)]), (8, 9, [(4, 8)]))
        rec = IntervalRecord(proc=0, seq=1, vc=vc, runs=runs, diff_runs=runs[1:])
        log.add(rec)
        assert log.records_for(4, 0, 1) == [rec] and log.diffs_for(4, 0, 1) == []
        [diff] = log.diffs_for(8, 0, 1)
        assert (diff.page, diff.ranges, diff.vc) == (8, [(4, 8)], vc)
        assert rec.diffs == {8: diff} and log.diffs_for(8, 0, 1) == [diff]

    def test_records_for_window_is_half_open(self):
        log = IntervalLog(0)
        for seq in (1, 2, 3, 4):
            log.add(record(0, seq, [10]))
        assert [r.seq for r in log.records_for(10, 1, 3)] == [2, 3]
        assert log.records_for(10, 4, 9) == []
        assert log.records_for(10, 0, 0) == []


class TestDiff:
    def test_wire_size_and_dirty_bytes(self):
        vc = VectorClock([1, 0])
        diff = Diff(proc=0, seq=1, page=3, vc=vc, ranges=[(0, 10), (20, 24)])
        assert diff.dirty_bytes == 14
        assert diff.wire_size == 14 + 16

    def test_sort_key_orders_by_happens_before(self):
        early = Diff(0, 1, 0, VectorClock([1, 0]), [(0, 4)])
        late = Diff(1, 1, 0, VectorClock([1, 1]), [(0, 4)])
        assert early.sort_key() < late.sort_key()


class TestDsmStats:
    def test_add_elementwise(self):
        a = DsmStats(page_fetches=3, compute_time=1.5)
        b = DsmStats(page_fetches=2, compute_time=0.5, diffs_fetched=7)
        total = a.add(b)
        assert total.page_fetches == 5
        assert total.compute_time == 2.0
        assert total.diffs_fetched == 7
        # originals untouched
        assert a.page_fetches == 3

    def test_copy_is_independent(self):
        a = DsmStats(barriers=1)
        b = a.copy()
        b.barriers = 99
        assert a.barriers == 1

    def test_team_total(self):
        result = RunResult(runtime_seconds=0.0, traffic=None, forks=0,
                           per_process={0: DsmStats(locks_acquired=2),
                                        1: DsmStats(locks_acquired=3)})
        assert result.total.locks_acquired == 5


class TestLogOnGoldenRuns:
    def test_log_keeps_every_close_until_gc(self):
        """The ``locks`` rows run no GC, so every interval a process
        closed is still in its log."""
        for proc in golden_row("locks/flat/obs-off").experiment.runtime.procs.values():
            assert proc.stats.gcs == 0
            assert len(proc.lrc.log) == proc.stats.intervals_closed > 0

    def test_gc_interval_limit_triggers_one_gc(self):
        """``locks-gc`` closes 150 intervals per process against a limit
        of 100: the log reaches the limit once, at the next fork."""
        for proc in golden_row("locks-gc/flat/obs-off").experiment.runtime.procs.values():
            assert proc.stats.gcs == 1

    def test_gc_is_the_only_drop(self):
        """``locks-gc`` GCs at its closing fork, after all 150 closes:
        the log then holds nothing and no longer asks for a GC."""
        for proc in golden_row("locks-gc/flat/obs-off").experiment.runtime.procs.values():
            assert proc.stats.intervals_closed >= proc.cfg.dsm.gc_interval_limit
            assert proc.lrc.epoch == 1
            assert len(proc.lrc.log) == 0
            assert not proc.lrc.wants_gc

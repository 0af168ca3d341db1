"""Incremental interval-log pruning: bounded memory, unchanged model.

Every ``INTERVAL_PRUNE_PERIOD`` closes a process drops the interval
records that every peer's applied clock already covers — pure host-side
bookkeeping read through ``peers_hook``, no messages, no simulated time.
The acceptance bar is twofold: a lock-heavy run (``LockProgram``: a
contended counter whose every tenure closes an interval) ends with a
bounded live log and a nonzero ``intervals_pruned``, and every simulated
quantity equals both its pinned ``locks`` row (``tests/golden.py``) and
a run whose sweeps are inert because the peers oracle is unplugged.
"""

import dataclasses
import functools

from repro.bench.harness import run_experiment
from repro.dsm.intervals import IntervalLog, IntervalRecord
from repro.dsm.process import INTERVAL_PRUNE_PERIOD
from repro.dsm.vectorclock import VectorClock

from ..golden import LockProgram, golden_row


def _procs(row):
    return row.experiment.runtime.procs.values()


@functools.lru_cache(maxsize=None)
def _unpruned_run():
    """The ``locks`` program with the peers oracle unplugged: without
    ``peers_hook`` a sweep cannot establish coverage and drops nothing."""
    def unplug(rt):
        for proc in rt.procs.values():
            proc.peers_hook = None

    return run_experiment(LockProgram, nprocs=LockProgram.NPROCS,
                          materialized=True, trace=True, events=unplug)


class TestUnitPruneCovered:
    def _log_with(self, seqs, pages_of):
        log = IntervalLog(proc=0)
        for seq in seqs:
            log.add(IntervalRecord(
                proc=0, seq=seq, vc=VectorClock.zeros(2),
                write_ranges={p: [(0, 8)] for p in pages_of(seq)},
            ))
        return log

    def test_drops_only_fully_covered_records(self):
        log = self._log_with([1, 2, 3], lambda seq: [0])
        assert log.prune_covered({0: 2}) == 2
        assert len(log) == 1
        assert [r.seq for r in log.records_for(0, 0, 10)] == [3]

    def test_record_survives_if_any_written_page_uncovered(self):
        log = self._log_with([1], lambda seq: [0, 1])
        assert log.prune_covered({0: 5}) == 0  # page 1 has no cover
        assert log.prune_covered({0: 5, 1: 1}) == 1
        assert len(log) == 0
        assert log.pages() == []

    def test_empty_log_is_a_noop(self):
        assert IntervalLog(proc=0).prune_covered({0: 99}) == 0


class TestBitwiseIdentity:
    def test_pruned_run_matches_unpruned_exactly(self):
        pruned = golden_row("locks/flat/obs-off").experiment
        unpruned = _unpruned_run()
        assert pruned.app.verify() and unpruned.app.verify()
        assert pruned.runtime_seconds == unpruned.runtime_seconds
        assert pruned.traffic == unpruned.traffic
        assert (pruned.runtime.sim.tracer.records
                == unpruned.runtime.sim.tracer.records)
        for pid, proc in pruned.runtime.procs.items():
            on = dataclasses.asdict(proc.stats)
            off = dataclasses.asdict(unpruned.runtime.procs[pid].stats)
            # the only permitted difference is the prune counter itself
            assert on.pop("intervals_pruned") > 0 == off.pop("intervals_pruned")
            assert on == off

    def test_pruning_actually_fires_and_bounds_the_log(self):
        for proc in _procs(golden_row("locks/flat/obs-off")):
            assert proc.stats.intervals_pruned > 0
            # no GC ran, so live records + pruned records == closed
            assert proc.stats.gcs == 0
            assert len(proc.log) \
                == proc.stats.intervals_closed - proc.stats.intervals_pruned
            # the live log stays within a sweep period of records however
            # many intervals the run closes
            assert len(proc.log) < INTERVAL_PRUNE_PERIOD \
                < proc.stats.intervals_closed


    def test_disabled_pruning_drops_nothing(self):
        for proc in _unpruned_run().runtime.procs.values():
            assert proc.stats.intervals_pruned == 0
            assert len(proc.log) == proc.stats.intervals_closed


class TestGcInteraction:
    def test_gc_timing_is_independent_of_pruning(self):
        """``wants_gc`` counts closes-this-epoch, not live records, so a
        pruned log must not delay the §4.1 consistency-memory GC: the
        ``locks-gc`` rows close 150 intervals against a limit of 100
        while pruning keeps fewer than 100 records live — the GC at the
        next fork still happens."""
        for proc in _procs(golden_row("locks-gc/flat/obs-off")):
            assert proc.stats.intervals_pruned > 0
            assert proc.stats.intervals_closed - proc.stats.intervals_pruned < 100
            assert proc.stats.gcs == 1

"""TreadMarks-style lazy-release-consistency software DSM.

The protocol engine (:class:`DsmProcess`), fork/join runtime
(:class:`TmkRuntime`), page/interval/diff machinery, barriers, locks,
garbage collection, and shared-array handles.
"""

from .barrier import TreeBarrier
from .diffs import apply_diffs_in_order, changed_ranges, make_diff
from .gc import gc_new_owners
from .intervals import (
    Diff,
    IntervalLog,
    IntervalNotice,
    IntervalRecord,
    NoticeBatch,
    WriteNotice,
)
from .locks import LockManager
from .memory import AddressSpace, LocalStore, SharedSegment
from .page import AccessMode, PageTable, PageTableEntry, Protocol
from .process import DsmProcess
from .runtime import MasterApi, RegionCtx, RunResult, TmkProgram, TmkRuntime
from .sc import ScProcess, ScRuntime
from .sharedarray import SharedArray
from .statistics import DsmStats, TeamStats
from .team import TeamView
from .vectorclock import VectorClock

__all__ = [
    "TreeBarrier",
    "AccessMode",
    "AddressSpace",
    "Diff",
    "DsmProcess",
    "DsmStats",
    "IntervalLog",
    "IntervalNotice",
    "IntervalRecord",
    "LocalStore",
    "LockManager",
    "MasterApi",
    "NoticeBatch",
    "PageTable",
    "PageTableEntry",
    "Protocol",
    "RegionCtx",
    "RunResult",
    "ScProcess",
    "ScRuntime",
    "SharedArray",
    "SharedSegment",
    "TeamStats",
    "TeamView",
    "TmkProgram",
    "TmkRuntime",
    "VectorClock",
    "WriteNotice",
    "apply_diffs_in_order",
    "changed_ranges",
    "gc_new_owners",
    "make_diff",
]

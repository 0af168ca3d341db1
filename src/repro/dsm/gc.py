"""Garbage collection (§4.1).

GC removes all consistency bookkeeping (twins, diffs, write notices,
intervals) and leaves every page either valid and up-to-date at a process,
or invalid with its owner field naming a process that holds a complete
copy.  The paper's adaptive system triggers a GC at every adaptation point
precisely because this state is cheap to describe to a joining process and
cheap to hand off at a leave.

The *new-owner rule* is a pure function of the epoch's write notices, so
every process computes the same owner map locally — no extra messages are
needed to agree on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .intervals import IntervalNotice


def gc_new_owners(
    intervals: Iterable[IntervalNotice],
    current_owner: Mapping[int, int] | None = None,
) -> Dict[int, int]:
    """Owner map changes implied by this epoch's write notices.

    For every written page the new owner is the writer of the *latest*
    interval in happens-before order (vector-clock sort key, computed
    once per interval; concurrent multi-writer intervals tie-break
    deterministically toward the lower pid).  Unwritten pages keep their
    current owner and do not appear in the result.
    """
    best: Dict[int, tuple] = {}
    for iv in intervals:
        key = (*iv.vc.sort_key(), -iv.proc)
        for page in iv.pages:
            prev = best.get(page)
            if prev is None or key > prev:
                best[page] = key
    owners = {page: -key[-1] for page, key in best.items()}
    if current_owner is not None:
        # Drop no-op entries to keep owner-update payloads minimal.
        owners = {
            p: w for p, w in owners.items() if current_owner.get(p) != w
        }
    return owners

"""Team membership view.

A :class:`TeamView` maps process ids (0..nprocs-1, with 0 the master) to
node ids.  Every DSM process holds a reference to the *same* view object;
it is mutated only by the master at adaptation points, when every other
process is blocked — mirroring the fact that in the real system the new
membership travels in the ``Tmk_fork`` message before anyone resumes.

The view also carries the team-wide freeze of an urgent leave (§4.2):
while :attr:`TeamView.frozen` holds a signal, every engine waits on it
before its next page, its next compute step and the next adaptation
point (``docs/PROTOCOL.md`` §6).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import AdaptationError


class TeamView:
    """pid <-> node mapping of the current team."""

    MASTER_PID = 0

    def __init__(self, node_ids: List[int]):
        if not node_ids:
            raise AdaptationError("a team needs at least one node")
        self._node_of: Dict[int, int] = dict(enumerate(node_ids))
        self.generation = 0
        #: While an urgent leave migrates a process, the freeze's
        #: :class:`~repro.simcore.Signal` (fired at the unfreeze); else None.
        self.frozen = None

    @property
    def nprocs(self) -> int:
        return len(self._node_of)

    # Pids are dense 0..n-1 (``set_mapping`` enforces it), so the pid
    # sets are ranges.
    @property
    def pids(self) -> range:
        return range(len(self._node_of))

    @property
    def slave_pids(self) -> range:
        return range(1, len(self._node_of))

    def node_of(self, pid: int) -> int:
        try:
            return self._node_of[pid]
        except KeyError:
            raise AdaptationError(f"no process with pid {pid}") from None

    def pid_of_node(self, node_id: int) -> int:
        for pid, nid in self._node_of.items():
            if nid == node_id:
                return pid
        raise AdaptationError(f"no process on node {node_id}")

    def has_node(self, node_id: int) -> bool:
        return node_id in self._node_of.values()

    # -- mutations (master only, at adaptation points) ----------------------
    def set_mapping(self, node_of: Dict[int, int]) -> None:
        """Replace the whole pid->node mapping (id reassignment)."""
        if TeamView.MASTER_PID not in node_of:
            raise AdaptationError("team must retain the master pid 0")
        expected = set(range(len(node_of)))
        if set(node_of) != expected:
            raise AdaptationError(f"pids must be dense 0..n-1, got {sorted(node_of)}")
        if len(set(node_of.values())) != len(node_of):
            raise AdaptationError("two pids mapped to the same node")
        self._node_of = dict(node_of)
        self.generation += 1

    def move_pid(self, pid: int, new_node: int) -> None:
        """Re-home one pid (migration) without changing the pid set."""
        if pid not in self._node_of:
            raise AdaptationError(f"no process with pid {pid}")
        self._node_of[pid] = new_node
        self.generation += 1

    def snapshot(self) -> Dict[int, int]:
        return dict(self._node_of)

"""The paper's contribution: transparent adaptive parallelism.

Adaptation-point processing of join/leave events over the DSM, grace
periods with migration-backed urgent leaves, process-id reassignment
strategies, and adaptation-point checkpointing.
"""

from .adaptation import (
    AdaptationQueue,
    AdaptationRecord,
    JoinRequest,
    LeaveRequest,
    RequestState,
)
from .checkpoint import Checkpoint, CheckpointManager, restore_checkpoint
from .migration import MigrationOutcome, migrate_process
from .reassign import (
    STRATEGIES,
    CompactShift,
    ReassignStrategy,
    SwapLast,
    moved_fraction,
)
from .runtime import AdaptiveRuntime

__all__ = [
    "AdaptationQueue",
    "AdaptationRecord",
    "AdaptiveRuntime",
    "Checkpoint",
    "CheckpointManager",
    "CompactShift",
    "JoinRequest",
    "LeaveRequest",
    "MigrationOutcome",
    "ReassignStrategy",
    "RequestState",
    "STRATEGIES",
    "SwapLast",
    "migrate_process",
    "moved_fraction",
    "restore_checkpoint",
]

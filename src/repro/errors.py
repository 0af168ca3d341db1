"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """A structural problem in the discrete-event simulation.

    Raised e.g. when a process yields an object that is not awaitable, when
    the simulator detects deadlock with ``run(until=...)`` unable to make
    progress, or when an event is scheduled in the past.
    """


class DeadlockError(SimulationError):
    """All processes are blocked and no future events exist."""


class InterruptedError_(ReproError):
    """Thrown *into* a simulated process when it is interrupted.

    Named with a trailing underscore to avoid shadowing the builtin
    ``InterruptedError``.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"simulated process interrupted: {cause!r}")
        self.cause = cause


class NetworkError(ReproError):
    """Malformed routing, unknown destination, or link misuse."""


class DsmError(ReproError):
    """Protocol violation inside the DSM engine."""


class ProtocolError(DsmError):
    """A message arrived that the LRC protocol state machine cannot accept."""


class AllocationError(DsmError):
    """Shared-memory allocation failed (out of configured address space)."""


class AdaptationError(ReproError):
    """The adaptive runtime was driven into an invalid state.

    Examples: asking the master process to perform a normal leave (a
    documented limitation of the paper's system), removing the last
    remaining process, or joining a node that is already participating.
    """


class MigrationError(AdaptationError):
    """An urgent-leave migration could not be carried out."""


class CheckpointError(ReproError):
    """Checkpoint creation or recovery failed."""


class FaultError(ReproError):
    """A fault-injection plan or action is invalid."""


class RecoveryError(CheckpointError):
    """Crash recovery could not be carried out (e.g. no nodes left)."""


class NodeUnavailableError(ReproError):
    """An operation targeted a node that has withdrawn from the pool."""


class ConfigurationError(ReproError):
    """Invalid or inconsistent configuration parameters."""


class ExecError(ReproError):
    """The scenario-execution engine failed (bad job spec, a worker that
    keeps crashing past its retry budget, or an unusable cache)."""

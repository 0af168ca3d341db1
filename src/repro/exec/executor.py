"""The transport-agnostic executor API of the scenario engine.

Three interchangeable backends execute a batch of
:class:`~repro.exec.spec.ScenarioSpec` and return the same
:class:`~repro.exec.pool.SweepOutcome`, bitwise-identical results in spec
order regardless of *where* the simulations ran:

* :class:`LocalExecutor` — :func:`repro.exec.pool.run_specs`: cache
  pre-pass here, then an ephemeral coordinator with ``jobs`` spawned
  workers on this host;
* :class:`SerialExecutor` — in-process, one at a time: the degraded mode
  and the identity reference everything else is tested against;
* :class:`RemoteExecutor` — a client of a standing coordinator
  (:mod:`repro.exec.service`): specs go out over the length-prefixed
  JSON socket protocol, results stream back from worker hosts.

``local`` and ``remote`` end in the same scheduler — the
:class:`~repro.exec.service.Coordinator` — and the same reassembly
(:func:`~repro.exec.service.submit_outcome`); they differ only in who
started the coordinator and where its workers run.

:class:`ExecutorConfig` is the one knob bag for all of them — worker
count, cache location, retry/deadline/degradation policy, backend
selection, coordinator address.

Drivers pick a backend with :func:`make_executor` (the CLI's
``--executor local|serial|remote`` flag maps straight onto it) or pass
an :class:`Executor` instance to :func:`repro.api.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence, runtime_checkable

from ..config import EXEC_CACHE_DIR, EXEC_RETRIES
from ..errors import ConfigurationError, ExecError
from .cache import ResultCache
from .pool import ProgressFn, SweepOutcome, default_jobs, run_specs
from .spec import ScenarioSpec

#: Executor backend names, in CLI ``--executor`` order.
BACKENDS = ("local", "serial", "remote")


@dataclass(frozen=True)
class ExecutorConfig:
    """Everything the execution engine is allowed to vary per host.

    Unlike every simulated-system parameter group these describe the
    *host(s)* running the simulations — worker counts, cache location,
    resilience policy, transport — so they are not part of
    :class:`~repro.config.SystemConfig` and never enter a scenario's
    config digest.  A config is backend-agnostic: the same instance can
    drive a local pool, a serial run, or a remote submission.
    """

    #: Worker processes for multi-scenario runs (None = one per core).
    jobs: Optional[int] = None

    #: Directory of the content-addressed result cache.
    cache_dir: str = EXEC_CACHE_DIR

    #: Serve/store results through the cache at all (``--no-cache`` off).
    use_cache: bool = True

    #: Re-execute and re-store even on a warm cache (``--refresh``).
    refresh: bool = False

    #: Times a task is re-queued after a failed attempt (crash, timeout).
    retries: int = EXEC_RETRIES

    #: Wall-clock floor of a task's deadline (seconds); the coordinator
    #: never drops a worker for a lease younger than this.
    deadline_floor: float = 30.0

    #: First retry backoff (seconds); doubles each further attempt.
    backoff_base: float = 0.05

    #: Backoff ceiling (seconds).
    backoff_max: float = 2.0

    #: Consecutive failed attempts before the sweep degrades to
    #: in-process serial execution (0 disables degradation).
    degrade_after: int = 3

    #: Which backend :func:`make_executor` builds (see :data:`BACKENDS`).
    backend: str = "local"

    #: ``host:port`` of the coordinator for the ``remote`` backend.
    coordinator: Optional[str] = None

    def validate(self) -> "ExecutorConfig":
        if self.jobs is not None and self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.deadline_floor < 0:
            raise ConfigurationError("deadline_floor must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.degrade_after < 0:
            raise ConfigurationError("degrade_after must be >= 0")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown executor backend {self.backend!r}; one of {BACKENDS}"
            )
        if self.backend == "remote" and not self.coordinator:
            raise ConfigurationError(
                "the remote backend needs a coordinator address "
                "(ExecutorConfig.coordinator / --coordinator HOST:PORT)"
            )
        return self

    def replaced(self, **kwargs) -> "ExecutorConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def supervisor_policy(self):
        """The :class:`repro.exec.supervisor.SupervisorPolicy` these
        parameters describe."""
        from .supervisor import DeadlinePolicy, RetryPolicy, SupervisorPolicy

        return SupervisorPolicy(
            retry=RetryPolicy(max_attempts=self.retries + 1,
                              base_delay=self.backoff_base,
                              max_delay=self.backoff_max),
            deadline=DeadlinePolicy(floor_seconds=self.deadline_floor),
            degrade_after=self.degrade_after,
        )

    def effective_jobs(self) -> int:
        """The actual worker count (resolves None to the core count)."""
        return self.jobs if self.jobs is not None else default_jobs()

    def make_cache(self) -> Optional[ResultCache]:
        """The :class:`ResultCache` this config names (None when off)."""
        if not self.use_cache:
            return None
        return ResultCache(root=self.cache_dir)


@runtime_checkable
class Executor(Protocol):
    """Anything that can run a batch of specs to a :class:`SweepOutcome`.

    The contract every backend honors:

    * outcomes come back **in spec order**, results bitwise-identical to
      serial in-process execution of the same list;
    * ``progress`` is called once per finished task, in completion order;
    * ``obs`` (a :class:`~repro.obs.Registry`) receives the engine's
      ``exec.*`` counters — and ``exec.service.*`` for remote runs.
    """

    #: Backend name, as spelled by ``--executor``.
    name: str

    def execute(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        progress: Optional[ProgressFn] = None,
        obs=None,
    ) -> SweepOutcome:
        """Run every spec; see the class docstring for the contract."""
        ...


class LocalExecutor:
    """A local coordinator with spawned workers, behind a config (the
    default backend)."""

    name = "local"

    def __init__(self, config: Optional[ExecutorConfig] = None,
                 cache: Optional[ResultCache] = None):
        self.config = (config or ExecutorConfig()).validate()
        #: Explicit cache overrides the config-built one (tests, sharing).
        self.cache = cache if cache is not None else self.config.make_cache()

    def _jobs(self) -> int:
        return self.config.effective_jobs()

    def execute(self, specs, *, progress=None, obs=None):
        return run_specs(
            specs,
            jobs=self._jobs(),
            cache=self.cache,
            refresh=self.config.refresh,
            progress=progress,
            supervisor=self.config.supervisor_policy(),
            obs=obs,
        )


class SerialExecutor(LocalExecutor):
    """In-process, one spec at a time — no spawn, no socket, no surprises.

    This *is* the legacy serial path (``jobs=1``), promoted to a named
    backend: the degraded mode of the supervisor, and the identity
    reference the parallel and remote backends are tested against.
    """

    name = "serial"

    def _jobs(self) -> int:
        return 1


class RemoteExecutor:
    """Submit the batch to a coordinator and stream the results back.

    The transport face of the service (docs/SERVICE.md): specs travel in
    wire form, execution happens wherever the coordinator's workers run,
    and the streamed reports are reassembled into the same
    :class:`SweepOutcome` shape the local backends produce — callers
    cannot tell where a sweep ran (``TaskOutcome.worker_id`` says, for
    the curious).  Caching, in-flight dedupe and supervision are
    coordinator-side (its policy, not this config's);
    ``use_cache=False``/``refresh`` travel with the submission.
    """

    name = "remote"

    def __init__(self, config: ExecutorConfig):
        if config.backend != "remote":
            config = config.replaced(backend="remote")
        self.config = config.validate()

    def execute(self, specs, *, progress=None, obs=None):
        from .service import submit_outcome

        outcome = submit_outcome(
            list(specs),
            self.config.coordinator,
            no_cache=not self.config.use_cache,
            refresh=self.config.refresh,
            progress=progress,
            obs=obs,
        )
        if outcome.degraded:
            raise ExecError(
                f"the coordinator at {self.config.coordinator} degraded and "
                f"handed scenarios back unexecuted")
        return outcome


def make_executor(config: Optional[ExecutorConfig] = None,
                  cache: Optional[ResultCache] = None) -> Executor:
    """Build the backend ``config.backend`` names.

    ``cache`` (optional) overrides the config-built cache for the local
    backends; the remote backend's cache lives with the coordinator, so
    passing one alongside ``backend="remote"`` is an error rather than a
    silent no-op.
    """
    config = (config or ExecutorConfig()).validate()
    if config.backend == "serial":
        return SerialExecutor(config, cache=cache)
    if config.backend == "remote":
        if cache is not None:
            raise ExecError(
                "the remote backend uses the coordinator's cache; "
                "a client-side cache= override makes no sense"
            )
        return RemoteExecutor(config)
    return LocalExecutor(config, cache=cache)

"""Scenario task model: picklable specs with content-addressed digests.

A :class:`ScenarioSpec` is the unit of work of the execution engine — a
complete, declarative description of one simulated run (kernel, problem
size, team size, adaptation/fault script, model options, seed).  Unlike
the callables :func:`repro.bench.harness.run_experiment` takes, a spec crosses
process boundaries (spawn-based workers pickle it) and serializes to a
*canonical JSON* form whose SHA-256 is the spec's **config digest**: two
specs describe the same simulation if and only if their digests match,
which is what keys the content-addressed result cache.

Everything a spec references is declarative on purpose: adapt events are
``(action, time, node, grace)`` records, fault scenarios are the plan
*text* (``repro.faults.dump_plan`` round-trips), and kernels are named in
a registry — no closures, no live objects.  Both are one script at run
time: :meth:`ScenarioSpec.install_events` lowers each event to the plan
grammar's ``join``/``leave``/``crash`` (default nodes resolved against
the fresh team) and installs events then plan through one
:class:`~repro.faults.FaultInjector`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..config import PerfParams, SystemConfig
from ..errors import ConfigurationError

#: Canonical-serialization schema; bump when the digest-relevant layout
#: of ScenarioSpec changes (old cache entries then miss on digest).
SPEC_SCHEMA = "repro-scenario/1"

#: Problem-size parameters each kernel accepts (and their digest order).
KERNEL_PARAMS: Dict[str, Tuple[str, ...]] = {
    "jacobi": ("n", "iterations"),
    "gauss": ("n", "iterations"),
    "fft3d": ("nx", "ny", "nz", "iterations"),
    "nbf": ("natoms", "npartners", "iterations"),
    "jacobi-resumable": ("n", "iterations"),
}

#: Keys :attr:`ScenarioSpec.perf` accepts (the model options).
PERF_OPTIONS = frozenset(f.name for f in fields(PerfParams))

#: Tolerances for the materialized-mode verification (matches the CLI and
#: the recovery sweep).
VERIFY_RTOL = 1e-7
VERIFY_ATOL = 1e-9


@dataclass(frozen=True)
class AdaptEvent:
    """One scripted adaptation or crash, CLI ``ACTION:TIME[:NODE]`` style.

    ``node=None`` uses the same defaults as the CLI: the node hosting the
    last pid for ``leave``/``crash``, the next free node id for ``join``.
    Only a ``leave`` takes ``grace``.
    """

    action: str
    time: float
    node: Optional[int] = None
    grace: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave", "crash"):
            raise ConfigurationError(f"unknown adapt action {self.action!r}")
        if self.time < 0:
            raise ConfigurationError("adapt event time must be >= 0")
        if self.grace is not None and self.action != "leave":
            raise ConfigurationError(f"{self.action} takes no grace period")

    def canonical(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "time": self.time,
            "node": self.node,
            "grace": self.grace,
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, hashable description of one simulated run."""

    #: Kernel name (see :data:`KERNEL_PARAMS`).
    kernel: str
    #: Problem-size keyword arguments for the kernel.
    params: Mapping[str, int] = field(default_factory=dict)
    nprocs: int = 4
    #: Charge compute through the Table-1-calibrated rates
    #: (:mod:`repro.bench.calibrate`) instead of the kernels' defaults.
    calibrated: bool = True
    adaptive: bool = False
    materialized: bool = False
    extra_nodes: int = 0
    #: Scripted adapt events / crashes.
    events: Tuple[AdaptEvent, ...] = ()
    #: Fault plan *text* (``repro.faults.parse_plan`` format), or None.
    fault_plan: Optional[str] = None
    checkpoint_interval: Optional[float] = None
    failure_detection: bool = False
    #: Override of :attr:`SystemConfig.seed` (None keeps the default).
    seed: Optional[int] = None
    #: :class:`~repro.config.PerfParams` field overrides (e.g.
    #: ``{"barrier_tree": True}``).
    perf: Mapping[str, Any] = field(default_factory=dict)
    #: Display name for progress/reports; **excluded from the digest**.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_PARAMS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; one of {sorted(KERNEL_PARAMS)}"
            )
        if self.nprocs < 1:
            raise ConfigurationError("nprocs must be >= 1")
        allowed = set(KERNEL_PARAMS[self.kernel])
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigurationError(
                f"{self.kernel}: unknown params {sorted(unknown)}; allowed {sorted(allowed)}"
            )
        unknown = set(self.perf) - PERF_OPTIONS
        if unknown:
            raise ConfigurationError(
                f"unknown perf options {sorted(unknown)}; "
                f"allowed {sorted(PERF_OPTIONS)}"
            )
        # Freeze the mutable collections so specs hash/pickle predictably.
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "perf", dict(self.perf))
        object.__setattr__(self, "events", tuple(self.events))

    # -- identity ----------------------------------------------------------
    def canonical_dict(self) -> Dict[str, Any]:
        """Digest-relevant fields, fixed layout (``label`` excluded)."""
        return {
            "schema": SPEC_SCHEMA,
            "kernel": self.kernel,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "nprocs": self.nprocs,
            "calibrated": self.calibrated,
            "adaptive": self.adaptive,
            "materialized": self.materialized,
            "extra_nodes": self.extra_nodes,
            "events": [e.canonical() for e in self.events],
            "fault_plan": self.fault_plan,
            "checkpoint_interval": self.checkpoint_interval,
            "failure_detection": self.failure_detection,
            "seed": self.seed,
            "perf": {k: self.perf[k] for k in sorted(self.perf)},
        }

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, no whitespace."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def config_digest(self) -> str:
        """SHA-256 over the canonical JSON — the spec's content address."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def replaced(self, **kwargs: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- wire form ---------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe dict that round-trips through :meth:`from_wire`.

        The canonical (digest-relevant) layout plus the display ``label``,
        which the coordinator/worker protocol preserves but the digest
        ignores.  ``ScenarioSpec.from_wire(spec.to_wire())`` reconstructs
        a spec with an **identical** config digest — the property the
        distributed service relies on to dedupe and cache across hosts.
        """
        d = self.canonical_dict()
        d["label"] = self.label
        return d

    @classmethod
    def from_wire(cls, d: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_wire` output (wire/JSON form)."""
        schema = d.get("schema")
        if schema != SPEC_SCHEMA:
            raise ConfigurationError(
                f"wire spec schema {schema!r} != {SPEC_SCHEMA!r}; "
                "coordinator and worker run different repro versions"
            )
        events = tuple(
            AdaptEvent(action=e["action"], time=e["time"],
                       node=e.get("node"), grace=e.get("grace"))
            for e in d.get("events", ())
        )
        return cls(
            kernel=d["kernel"],
            params=dict(d.get("params", {})),
            nprocs=d.get("nprocs", 4),
            calibrated=d.get("calibrated", True),
            adaptive=d.get("adaptive", False),
            materialized=d.get("materialized", False),
            extra_nodes=d.get("extra_nodes", 0),
            events=events,
            fault_plan=d.get("fault_plan"),
            checkpoint_interval=d.get("checkpoint_interval"),
            failure_detection=d.get("failure_detection", False),
            seed=d.get("seed"),
            perf=dict(d.get("perf", {})),
            label=d.get("label"),
        )

    @property
    def display_name(self) -> str:
        return self.label or f"{self.kernel}-{self.nprocs}"

    # -- execution ---------------------------------------------------------
    @property
    def has_crashes(self) -> bool:
        if any(e.action == "crash" for e in self.events):
            return True
        if self.fault_plan:
            from ..faults import parse_plan

            return bool(parse_plan(self.fault_plan).crash_times)
        return False

    @property
    def effective_adaptive(self) -> bool:
        """Adaptive runtime needed (explicitly or implied, as in the CLI)."""
        return bool(
            self.adaptive or self.events or self.fault_plan
            or self.checkpoint_interval is not None
        )

    def build_config(self):
        """The :class:`~repro.config.SystemConfig` this spec runs under."""
        cfg = SystemConfig()
        if self.perf:
            cfg = cfg.with_(perf=PerfParams(**dict(self.perf)))
        if self.seed is not None:
            cfg = cfg.with_(seed=self.seed)
        return cfg

    def build_app(self):
        """Instantiate the kernel (calibrated rates when asked)."""
        if self.calibrated:
            from ..bench.calibrate import (
                make_fft3d,
                make_gauss,
                make_jacobi,
                make_nbf,
            )

            factories = {
                "jacobi": make_jacobi,
                "gauss": make_gauss,
                "fft3d": make_fft3d,
                "nbf": make_nbf,
            }
            if self.kernel not in factories:
                raise ConfigurationError(
                    f"no calibrated rates for kernel {self.kernel!r}"
                )
            return factories[self.kernel](**self.params)
        from ..apps import FFT3D, Gauss, Jacobi, NBF

        if self.kernel == "jacobi-resumable":
            from ..bench.recovery import ResumableJacobi

            return ResumableJacobi(**self.params)
        classes = {"jacobi": Jacobi, "gauss": Gauss, "fft3d": FFT3D, "nbf": NBF}
        return classes[self.kernel](**self.params)

    def install_events(self, rt) -> None:
        """Install the events, in spec order, then the fault plan, through
        one :class:`~repro.faults.FaultInjector` on a fresh runtime."""
        from ..faults import FaultAction, FaultInjector, parse_plan

        # A default join takes the next node id that is neither in the
        # team nor claimed by another join (earlier default or explicit).
        claimed = {rt.team.node_of(pid) for pid in rt.team.pids}
        claimed.update(ev.node for ev in self.events
                       if ev.action == "join" and ev.node is not None)
        join_nodes = {}
        for i, ev in sorted(enumerate(self.events), key=lambda p: p[1].time):
            if ev.action == "join" and ev.node is None:
                node = rt.team.nprocs
                while node in claimed:
                    node += 1
                claimed.add(node)
                join_nodes[i] = node
        # A default leave or crash takes the node hosting the last pid.
        last = rt.team.node_of(rt.team.nprocs - 1)
        actions = []
        for i, ev in enumerate(self.events):
            if ev.node is not None:
                node = ev.node
            else:
                node = join_nodes[i] if ev.action == "join" else last
            args = (node,) if ev.grace is None else (node, ev.grace)
            actions.append(FaultAction(ev.time, ev.action, args))
        if self.fault_plan:
            actions += parse_plan(self.fault_plan).actions
        FaultInjector(rt, actions).install()


def spec_from_preset(preset: str, kernel: str, nprocs: int,
                     calibrated: bool = True, **kwargs: Any) -> ScenarioSpec:
    """A spec at a named preset's problem size (``paper``/``bench``/``tiny``).

    The preset is resolved to explicit problem-size params at construction
    time, so the digest captures the actual configuration rather than the
    preset name (presets may be re-tuned between versions).
    """
    from ..apps import BENCH, PAPER, TINY

    presets = {"paper": PAPER, "bench": BENCH, "tiny": TINY}
    if preset not in presets:
        raise ConfigurationError(f"unknown preset {preset!r}")
    if kernel not in presets[preset]:
        raise ConfigurationError(f"unknown kernel {kernel!r}")
    app = presets[preset][kernel].make()
    params = {name: getattr(app, name) for name in KERNEL_PARAMS[kernel]}
    return ScenarioSpec(kernel=kernel, params=params, nprocs=nprocs,
                        calibrated=calibrated, **kwargs)

"""Spans recorded from outside the program, at its layers' public entry points.

:class:`Tracer` replaces class and module attributes of ``repro`` with
timing wrappers for the duration of one traced pass and puts the
originals back afterwards; nothing under ``src/`` knows about it.  Every
call (plain functions) or resume (generators, through :class:`_GenProxy`)
of a wrapped entry point records one span: name, start, end, parent.
Spans live in four parallel lists until :meth:`Tracer.table` reduces them
to per-name call counts and *self* times (a span's duration minus the
part its child spans cover), so the per-name self times plus the time
outside any span tile the traced wall.

What each span name wraps is the table in :meth:`Tracer.install`; the
layer -> metric mapping built on top of it lives in ``measure.py``.

Tracing cost lands in the *parent* of each wrapped call (the wrapper's
own prologue and epilogue run outside the child's start/end stamps), so
``simcore.loop`` — the parent of nearly everything — is inflated most.
``trace.overhead_x`` reports the total inflation; the end-to-end
metrics are measured with no wrapper installed.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Top-level simulated processes are named after the package their
#: generator's code lives in (``.../repro/<package>/...``).
_PROCESS_SPAN_BY_PACKAGE = {
    "dsm": "dsm.other",
    "core": "core.host",
    "faults": "core.host",
    "cluster": "core.host",
}

#: Spans written to the trace file per run (the table covers all spans).
MAX_SPANS_WRITTEN = 200_000


class _GenProxy:
    """Times each resume of a generator; forwards send/throw/close."""

    __slots__ = ("_gen", "_name_id", "_tracer")

    def __init__(self, gen, name_id: int, tracer: "Tracer") -> None:
        self._gen = gen
        self._name_id = name_id
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def _resume(self, step, *args):
        t = self._tracer
        starts = t.starts
        index = len(starts)
        cur = t.cur
        parent = cur[0]
        cur[0] = index
        t.name_ids.append(self._name_id)
        t.parents.append(parent)
        t.ends.append(0.0)
        starts.append(time.perf_counter())
        try:
            return step(*args)
        finally:
            t.ends[index] = time.perf_counter()
            cur[0] = parent

    def close(self):
        return self._gen.close()


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids: List[int] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: Index of the innermost open span (-1 outside any span).
        self.cur: List[int] = [-1]
        #: Per-name tallies that are not span counts (generator
        #: instantiations, notices handed to ``apply_notices``).
        self.tallies: Dict[str, int] = {}
        #: (config digest, first span index, one past the last) per scenario.
        self.scenarios: List[Tuple[str, int, int]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._main_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (scenario roots, legs)."""
        index = len(self.starts)
        parent = self.cur[0]
        self.cur[0] = index
        self.name_ids.append(self.name_id(name))
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self.cur[0] = parent

    @contextmanager
    def scenario(self, digest: str) -> Iterator[None]:
        """Root span of one scenario run; its spans share ``digest``."""
        first = len(self.starts)
        with self.span("scenario"):
            yield
        self.scenarios.append((digest, first, len(self.starts)))

    # -- wrappers ----------------------------------------------------------
    def function(self, fn: Callable, name: str,
                 tally: Optional[Callable[..., int]] = None,
                 main_thread_only: bool = False) -> Callable:
        """``fn`` timed per call.  ``tally(*args)`` adds to ``tallies[name]``."""
        nid = self.name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, cur = self.starts, self.ends, self.cur
        tallies = self.tallies
        clock = time.perf_counter
        main_thread = self._main_thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if main_thread_only and get_ident() != main_thread:
                return fn(*args, **kwargs)
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + tally(*args, **kwargs)
            index = len(starts)
            parent = cur[0]
            cur[0] = index
            name_ids.append(nid)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                cur[0] = parent

        traced.__wrapped__ = fn
        return traced

    def generator_function(self, fn: Callable, name: str) -> Callable:
        """``fn`` returns a generator: time every resume of it."""
        nid = self.name_id(name)
        tallies = self.tallies

        def traced(*args, **kwargs):
            tallies[name] = tallies.get(name, 0) + 1
            return _GenProxy(fn(*args, **kwargs), nid, self)

        traced.__wrapped__ = fn
        return traced

    def _process_wrapper(self, fn: Callable) -> Callable:
        """``Simulator.process``: proxy every top-level process generator,
        named after the package that owns its code."""
        ids = {pkg: self.name_id(name)
               for pkg, name in _PROCESS_SPAN_BY_PACKAGE.items()}
        other = self.name_id("sim.other")

        def process(sim, gen, *args, **kwargs):
            code = getattr(gen, "gi_code", None)
            nid = other
            if code is not None:
                _, _, tail = code.co_filename.replace("\\", "/").rpartition("/repro/")
                nid = ids.get(tail.split("/", 1)[0], other)
            return fn(sim, _GenProxy(gen, nid, self), *args, **kwargs)

        process.__wrapped__ = fn
        return process

    def _loops_wrapper(self, fn: Callable) -> Callable:
        """``AppKernel.loops``: time the ``ParallelFor`` bodies it declares."""
        def loops(app):
            return [
                dataclasses.replace(
                    loop, body=self.generator_function(loop.body, "apps.body"))
                for loop in fn(app)
            ]

        loops.__wrapped__ = fn
        return loops

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, owner: Any, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self.function(getattr(owner, attr), name, **kw))

    def _patch_generator(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr,
                    self.generator_function(getattr(owner, attr), name))

    def install(self) -> None:
        """Patch the layers' entry points (undo with :meth:`uninstall`)."""
        from repro import apps
        from repro.core import AdaptiveRuntime
        from repro.dsm import diffs, intervals, process as dsm_process, vectorclock
        from repro.exec import cache, spec
        from repro.network import nic, switch, topology
        from repro.simcore import events, simulator

        fn, gen = self._patch_function, self._patch_generator
        # simcore
        fn(simulator.Simulator, "run", "simcore.loop")
        self._patch(simulator.Simulator, "process",
                    self._process_wrapper(simulator.Simulator.process))
        for queue in (events.BatchedEventQueue, events.EventQueue):
            fn(queue, "push", "simcore.push")
            fn(queue, "push_span", "simcore.push")
        # network
        fn(switch.Switch, "transmit", "network.transmit")
        fn(topology.FatTreeSwitch, "transmit", "network.transmit")
        fn(switch.Switch, "transmit_flight", "network.flight")
        fn(nic.Nic, "deliver", "network.deliver")
        # dsm: consistency protocol
        proc = dsm_process.DsmProcess
        fn(proc, "apply_notices", "dsm.notice.apply",
           tally=lambda self, notices, sender_vc:
           len(notices) if hasattr(notices, "__len__") else 0)
        fn(proc, "notices_unknown_to", "dsm.notice.unknown")
        fn(proc, "close_interval", "dsm.interval.close")
        fn(intervals.IntervalLog, "records_for", "dsm.interval.lookup")
        fn(intervals.IntervalLog, "diffs_for", "dsm.interval.lookup")
        fn(vectorclock.VectorClock, "merge", "dsm.vc.merge")
        gen(proc, "access", "dsm.access")
        # dsm: bytes.  ``process`` binds the diff functions by name at
        # import, so its globals are patched as well as their home module.
        for module in (diffs, dsm_process):
            fn(module, "make_diff", "dsm.diff.make")
            fn(module, "apply_diffs_in_order", "dsm.diff.apply")
        fn(intervals.Diff, "apply", "dsm.diff.apply")
        # apps, core
        for kernel in (apps.Jacobi, apps.Gauss, apps.FFT3D, apps.NBF):
            self._patch(kernel, "loops", self._loops_wrapper(kernel.loops))
        gen(AdaptiveRuntime, "at_adaptation_point", "core.host")
        # exec (the coordinator's threads are left untraced)
        fn(cache.ResultCache, "get", "exec.cache.get", main_thread_only=True)
        fn(cache.ResultCache, "put", "exec.cache.put", main_thread_only=True)
        fn(spec.ScenarioSpec, "config_digest", "exec.spec.digest",
           main_thread_only=True)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self) -> List[Tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _ in self._patched]

    # -- reduction ---------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` over all spans."""
        import numpy as np

        n = len(self.starts)
        if n == 0:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        total_s = np.bincount(ids, weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def export(self) -> Dict[str, Any]:
        """JSON-safe trace: the per-name table, the scenarios, and the
        first :data:`MAX_SPANS_WRITTEN` spans in columnar form (times in
        microseconds since the first span)."""
        n = min(len(self.starts), MAX_SPANS_WRITTEN)
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "schema": "repro-spine-trace/1",
            "names": self.names,
            "table": self.table(),
            "tallies": dict(self.tallies),
            "scenarios": [
                {"digest": d, "first_span": a, "end_span": b}
                for d, a, b in self.scenarios
            ],
            "spans_total": len(self.starts),
            "spans_written": n,
            "spans": {
                "name": self.name_ids[:n],
                "parent": self.parents[:n],
                "start_us": [round((s - t0) * 1e6, 1) for s in self.starts[:n]],
                "end_us": [round((e - t0) * 1e6, 1) for e in self.ends[:n]],
            },
        }

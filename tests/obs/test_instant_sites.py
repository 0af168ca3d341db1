"""Every instant kind the simulator emits, reached by a small scenario.

One case per kind in the table of docs/OBSERVABILITY.md ("Instants"):
the kind is recorded with its documented detail text, and
``ObsConfig(per_process=False)`` drops it exactly when it is one of the
dense kinds (``net/<message kind>``, ``dsm/page_fetch``, ``dsm/demote``).
A site that stops emitting, or whose detail text drifts, fails its own
case by name.
"""

import dataclasses
import re

import pytest

from repro.config import FaultParams, SystemConfig
from repro.dsm import Protocol, SharedArray
from repro.faults import FaultInjector, parse_plan
from repro.obs import Registry

from ..core.test_adaptive_runtime import iterative_program
from ..core.test_checkpoint import counter_program
from ..faults.test_multi_failure import recovery_window
from ..helpers import build_adaptive, run_phases

#: The ``net`` subjects that report a link fault rather than a message.
NET_FAULTS = ("cut", "dropped", "delayed", "duplicated")


def _planned(plan, program=iterative_program, n_iter=20, **build_kw):
    """Run ``program`` under a fault plan; the scenario for ``obs``."""
    def scenario(obs):
        sim, rt, pool = build_adaptive(obs=obs, **build_kw)
        if program is counter_program:
            prog, *_ = counter_program(rt, n_iter=n_iter)
        else:
            prog = program(rt, n_iter=n_iter)
        FaultInjector(rt, parse_plan(plan)).install()
        rt.run(prog)
    return scenario


def _urgent_leave(obs):
    """Long chunks push the adaptation point past a short grace period."""
    sim, rt, pool = build_adaptive(nprocs=3, obs=obs)
    prog = iterative_program(rt, n_iter=6, compute=1.0)
    FaultInjector(rt, parse_plan("0.5 leave 2 0.2")).install()
    rt.run(prog)


def _write_sharing(obs):
    """Two processes write one single-writer page in the same region."""
    sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=0, obs=obs)
    seg = rt.malloc("rows", shape=(2, 64), dtype="float64",
                    protocol=Protocol.SINGLE_WRITER)
    arr = SharedArray(seg)

    def write(ctx, pid, nprocs, args):
        yield from ctx.access(seg, writes=arr.rows(pid, pid + 1))

    def read(ctx, pid, nprocs, args):
        yield from ctx.access(seg, reads=arr.full())

    run_phases(rt, {"write": write, "read": read}, ["write", "read"] * 2)


def _cascade(obs):
    """A second crash lands while the first recovery restores."""
    detected, finished = recovery_window(nprocs=3, extra_nodes=2)
    mid = detected + (finished - detected) / 2
    _planned(f"0.9 crash 1\n{mid:.6f} crash 2", program=counter_program,
             nprocs=3, extra_nodes=2, checkpoint_interval=0.1,
             failure_detection=True)(obs)


SCENARIOS = {
    # The join's connection setup outlasts a short run: 80 steps let the
    # joiner be absorbed (and receive the page map) after the leave.
    "join-leave": _planned("0.0 join 3\n0.2 leave 1", n_iter=80,
                           nprocs=3, extra_nodes=1),
    "urgent-leave": _urgent_leave,
    "master-leave": _planned("0.05 leave 0", nprocs=2, extra_nodes=0),
    "write-sharing": _write_sharing,
    "crash": _planned("0.9 crash 1", program=counter_program, nprocs=3,
                      extra_nodes=2, checkpoint_interval=0.1,
                      failure_detection=True),
    # No heartbeats: a request into the dead node times out instead.
    "request-timeout": _planned(
        "0.9 crash 1", program=counter_program, nprocs=3, extra_nodes=1,
        checkpoint_interval=0.1, failure_detection=True,
        cfg=dataclasses.replace(
            SystemConfig(), faults=FaultParams(heartbeat_interval=0.0))),
    "cascade": _cascade,
    # Acks late for about two rounds, then on time again.
    "false-suspicion": _planned(
        "0.30 degrade 1 0.02\n0.42 restore 1", program=counter_program,
        nprocs=3, extra_nodes=0, failure_detection=True,
        cfg=dataclasses.replace(SystemConfig(), faults=FaultParams(
            heartbeat_interval=0.05, heartbeat_timeout=0.02,
            suspicion_threshold=6))),
    "partition": _planned("0.30 cut 0 1", program=counter_program,
                          nprocs=3, extra_nodes=2, failure_detection=True),
    "lossy": _planned("0.0 loss 0.05\n0.0 duplicate 0.3\n0.0 delay 0.2 0.001",
                      nprocs=3, extra_nodes=1),
}

#: (category, subject, scenario, detail pattern, dense).  ``subject`` is
#: a pattern too, for the two sites whose subject is data: the fired plan
#: action and the transmitted message's kind.
SITES = [
    ("adapt", "join_request", "join-leave", r"node\d+", False),
    ("adapt", "join_ready", "join-leave", r"node\d+", False),
    ("adapt", "page_map", "join-leave", r"P\d+ \d+ pages", False),
    ("adapt", "leave_request", "join-leave", r"node\d+ pid\d+ grace=[\d.]+", False),
    ("adapt", "adaptation_begin", "join-leave",
     r"joins=\[[\d, ]*\] leaves=\[[\d, ]*\]", False),
    ("adapt", "leave_drain", "join-leave",
     r"P\d+: \d+ pages fetched of \d+ owned", False),
    ("adapt", "adaptation_end", "join-leave", r"nprocs \d+->\d+ in \d+\.\d{3}s", False),
    ("adapt", "grace_expired", "urgent-leave", r"node\d+ pid\d+", False),
    ("adapt", "freeze", "urgent-leave", r"urgent leave of node \d+", False),
    ("adapt", "migrated", "urgent-leave", r"P\d+ node\d+->node\d+", False),
    ("adapt", "unfreeze", "urgent-leave", r"", False),
    ("adapt", "urgent_leave", "urgent-leave",
     r"node\d+: P\d+ multiplexed on node\d+", False),
    ("adapt", "master_leave_deferred", "master-leave",
     r"node0: no idle migration target", False),
    ("adapt", "checkpoint", "crash", r"\d+ pages collected, \d+ B image", False),
    ("fault", "crash", "crash", r"node\d+", False),
    ("fault", "heartbeat_miss", "crash", r"node\d+ \d+/\d+", False),
    ("fault", "declared_crashed", "crash",
     r"node\d+ reason=heartbeat latency=\d+\.\d{4}s", False),
    ("fault", "recovery_begin", "crash", r"crashed=\[[\d, ]+\] reason=heartbeat", False),
    ("fault", "recovery_end", "crash",
     r"nprocs \d+->\d+ restore=\d+\.\d{3}s lost=\d+\.\d{3}s", False),
    ("fault", "suspected", "request-timeout", r"node\d+: .+", False),
    ("fault", "recovery_replan", "cascade", r"crashed during restore: \[[\d, ]+\]", False),
    ("fault", "suspicion_cleared", "false-suspicion", r"node\d+", False),
    ("plan", r"join|leave", "join-leave", r"\d+\.\d{6} (join|leave)( [\d.]+)*", False),
    ("net", "cut", "partition", r"\w+ \d+->\d+", False),
    ("net", "dropped", "lossy", r"\w+ \d+->\d+", False),
    ("net", "delayed", "lossy", r"\w+ \d+->\d+ \+\d+\.\d{6}s", False),
    ("net", "duplicated", "lossy", r"\w+ \d+->\d+", False),
    ("net", r"(?!(%s)$)\w+" % "|".join(NET_FAULTS), "join-leave",
     r"\d+->\d+ \d+B.*", True),
    ("tmk", "fork", "join-leave", r"#\d+ \w+", False),
    ("tmk", "join", "join-leave", r"#\d+ \w+", False),
    ("dsm", "gc_start", "join-leave", r"fork#\d+", False),
    ("dsm", "gc", "join-leave", r"P\d+ epoch=\d+", False),
    ("dsm", "page_fetch", "join-leave", r"P\d+<-P\d+ pg\d+", True),
    ("dsm", "demote", "write-sharing", r"P\d+ pg\d+ -> multiple-writer", True),
]


def _site_id(site):
    category, subject = site[:2]
    if category == "plan":
        return "plan/<action>"
    if category == "net" and subject not in NET_FAULTS:
        return "net/<kind>"
    return f"{category}/{subject}"


@pytest.fixture(scope="module")
def instants():
    """A scenario's instants by (name, ``per_process``), run on demand."""
    cache = {}

    def get(name, per_process):
        if (name, per_process) not in cache:
            obs = Registry(per_process=per_process)
            SCENARIOS[name](obs)
            cache[name, per_process] = obs.instants
        return cache[name, per_process]

    return get


def _of_kind(instants, category, subject):
    return [i for i in instants
            if i.category == category and re.fullmatch(subject, i.subject)]


@pytest.mark.parametrize("site", SITES, ids=_site_id)
def test_site_records_its_instant(site, instants):
    category, subject, scenario, detail, dense = site
    full = _of_kind(instants(scenario, True), category, subject)
    assert full, f"{scenario} recorded no {_site_id(site)} instant"
    for instant in full:
        assert re.fullmatch(detail, instant.detail), instant
    sparse = _of_kind(instants(scenario, False), category, subject)
    assert sparse == ([] if dense else full)

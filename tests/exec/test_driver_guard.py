"""Only drivers are coroutines.

Protocol work — serving a request, pulling a page, resolving an SC fault —
is a callback chain on the delivering event and the node's handler CPU
(``docs/PROTOCOL.md`` §1, §10).  A :class:`~repro.simcore.SimProcess` is
made only for a *driver*: the master's driver and each process's main
loop, the adaptation and recovery orchestrators, and the cluster and
fault daemons.  This guard records the name of every process built over
every golden scenario kind (flat and tree+fattree), an adaptive run with
checkpoints on a lossy wire, and the SC baseline, and checks each against
that allowlist.
"""

import re

import pytest

from repro.api import AdaptEvent
from repro.apps import KERNELS, TINY
from repro.dsm import ScRuntime
from repro.exec.pool import execute_spec
from repro.network import message as mk
from repro.simcore import SimProcess

from ..golden import _ADAPT, SCENARIOS, run_row
from ..helpers import build_system

DRIVER = re.compile(
    r"master\.driver|P\d+\.main"
    r"|join\.setup\.\d+|grace\.\d+|recovery"
    r"|failure\.detector|alternator"
)


def process_names(monkeypatch, scenario):
    """Run ``scenario()``; the names of the processes it built."""
    names = []
    init = SimProcess.__init__

    def recording(self, sim, gen, name="proc", daemon=False):
        names.append(name)
        init(self, sim, gen, name=name, daemon=daemon)

    monkeypatch.setattr(SimProcess, "__init__", recording)
    scenario()
    return names


def assert_drivers_only(names):
    assert names
    strays = sorted({n for n in names if not DRIVER.fullmatch(n)})
    assert not strays, f"protocol work spawned processes: {strays[:10]}"


@pytest.mark.parametrize("row_id", [
    f"{scenario}/{model}/obs-off"
    for scenario in SCENARIOS for model in ("flat", "tree+fattree")
])
def test_golden_row_spawns_drivers_only(row_id, monkeypatch):
    assert_drivers_only(process_names(monkeypatch, lambda: run_row.__wrapped__(row_id)))


def test_lossy_adaptive_run_spawns_drivers_only(monkeypatch):
    """Leave-drain and checkpoint pulls, with retransmissions: a grid big
    enough that the leaver owns pages the master has no copy of."""
    spec = _ADAPT.replaced(params={"n": 96, "iterations": 4},
                           events=(AdaptEvent("leave", 0.03, 3),),
                           fault_plan="0 loss 0.05", checkpoint_interval=0.02)

    def scenario():
        exp, _ = execute_spec(spec)
        assert exp.traffic.retransmissions > 0
        assert sum(r.drained_pages for r in exp.adapt_records) > 0
        assert exp.traffic.by_kind_messages[mk.CKPT_PAGE_REQ] > 0

    assert_drivers_only(process_names(monkeypatch, scenario))


@pytest.mark.parametrize("kernel", sorted(TINY))
def test_sc_baseline_spawns_drivers_only(kernel, monkeypatch):
    def scenario():
        _, rt, _ = build_system(nprocs=4, runtime_cls=ScRuntime)
        app = KERNELS[kernel](**TINY[kernel])
        rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9)

    assert_drivers_only(process_names(monkeypatch, scenario))


def test_allowlist_rejects_protocol_work():
    for name in ("page_req.12", "ckpt_page_req.3", "P2.h.sc_write_req",
                 "barrier3.release", "proc"):
        assert not DRIVER.fullmatch(name)

"""The team-wide freeze of an urgent leave (§4.2) is honoured per page.

A freeze can begin only while simulated time passes, and inside an
access only a fault lets it pass.  So an engine that is faulting when the
freeze begins must stop before its next page, send nothing for the
duration, and finish the access once the team is unfrozen.
"""

import pytest

from repro.dsm import TmkProgram
from repro.dsm.consistency import SLICE_PAGES
from repro.network import message as mk

from ..helpers import build_adaptive

#: How long the freeze lasts: far longer than a page fetch.
FREEZE_S = 5e-3


@pytest.mark.parametrize("n_pages", [4, SLICE_PAGES + 2],
                         ids=["page-by-page", "long-run"])
def test_freeze_during_a_fault_stops_the_engine_before_its_next_page(n_pages):
    sim, rt, _ = build_adaptive(nprocs=2, extra_nodes=0, materialized=False)
    page_size = rt.cfg.dsm.page_size
    seg = rt.malloc("grid", nbytes=n_pages * page_size)
    reader = rt.procs[1]
    nic = reader.node.nic
    request = nic.request
    page_reqs = []
    window = {}

    def logged_request(msg, service=None):
        if msg.kind == mk.PAGE_REQ:
            page_reqs.append(sim.now)
            if len(page_reqs) == 1:
                # Freeze mid-fault: the first request is on the wire.
                def freeze():
                    rt.freeze("test")
                    window["frozen"] = sim.now

                def unfreeze():
                    rt.unfreeze()
                    window["unfrozen"] = sim.now

                sim.schedule(1e-6, freeze)
                sim.schedule(FREEZE_S, unfreeze)
        return request(msg, service)

    nic.request = logged_request

    def region(ctx, pid, nprocs, args):
        if pid == 1:
            yield from ctx.access(seg, reads=[(0, seg.nbytes)])
            window["done"] = sim.now

    def driver(api):
        yield from api.fork_join("read")

    rt.run(TmkProgram({"read": region}, driver, "freeze"))

    assert len(page_reqs) == n_pages
    frozen, unfrozen = window["frozen"], window["unfrozen"]
    assert page_reqs[0] < frozen
    # The first fault completes inside the window; the next page waits.
    assert not [t for t in page_reqs if frozen <= t < unfrozen]
    assert page_reqs[1] >= unfrozen
    # ...and the access then finishes: every page fetched and valid.
    assert window["done"] > unfrozen
    assert all(reader.lrc.table.valid[p]
               for p in range(seg.page0, seg.page0 + seg.npages))
    assert rt.team.frozen is None

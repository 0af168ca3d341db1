"""The links are the one per-link ledger; totals and per-kind counters are
counted once per message, by ``Switch.transmit`` and the migration copy.

An adaptive run on a lossy wire with one urgent leave (so one process
image crosses the network) is checked against a hand count taken at the
wire: every ``transmit`` that returned, plus the image.
"""

from collections import Counter

import numpy as np

from repro.config import SystemConfig
from repro.core import urgent
from repro.dsm import SharedArray, TmkProgram
from repro.network import Switch
from repro.network import message as mk
from repro.network.stats import PAGE_KINDS

from ..helpers import build_adaptive, lossy_wire


def _program(rt, n_iter=6, shape=(64, 17)):
    """Row blocks that share pages, so diffs flow as well as pages."""
    arr = SharedArray(rt.malloc("grid", shape=shape, dtype="float64"))

    def init(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            arr.view(ctx)[:] = 1.0

    def step(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi))
        arr.view(ctx)[lo:hi] += 1.0
        yield from ctx.compute(1.0)

    def check(ctx, pid, nprocs, args):
        yield from ctx.access(arr.seg, reads=arr.full())
        np.testing.assert_array_equal(arr.view(ctx), np.full(shape, 1.0 + n_iter))

    def driver(api):
        yield from api.fork_join("init")
        for it in range(n_iter):
            yield from api.fork_join("step", it)
        yield from api.fork_join("check")

    return TmkProgram({"init": init, "step": step, "check": check}, driver, "ledger")


def test_one_ledger_under_loss_and_migration(monkeypatch):
    header = SystemConfig().network.header_bytes
    sim, rt, pool = build_adaptive(nprocs=3)
    lossy_wire(rt, 0.05)

    wire = []  # (kind, src, dst, wire bytes, payload) of every transmit
    transmit = Switch.transmit

    def counted_transmit(self, msg):
        arrival = transmit(self, msg)
        if msg.src != msg.dst:
            wire.append((msg.kind, msg.src, msg.dst, msg.size_bytes + header, msg.payload))
        return arrival

    migrations = []  # (delta across the copy, outcome, wire messages in it)
    migrate = urgent.migrate_process

    def observed_migrate(runtime, proc, dst_node):
        before, first = runtime.switch.stats.snapshot(), len(wire)
        outcome = yield from migrate(runtime, proc, dst_node)
        delta = runtime.switch.stats.snapshot().delta(before)
        migrations.append((delta, outcome, wire[first:]))
        return outcome

    monkeypatch.setattr(Switch, "transmit", counted_transmit)
    monkeypatch.setattr(urgent, "migrate_process", observed_migrate)
    sim.schedule(0.5, lambda: rt.submit_leave(2, grace=0.2))
    rt.run(_program(rt))
    snap = rt.switch.stats.snapshot()

    # Per-link bytes are read from the links, every link that carried any.
    assert snap.per_link_bytes == {
        link.name: link.bytes_carried
        for link in rt.switch.iter_links() if link.bytes_carried
    }

    # The copy's delta carries the image on both port links, plus
    # whatever else crossed those links meanwhile.
    (delta, outcome, during), = migrations
    image = outcome.image_bytes
    up, down = f"up{outcome.src_node}", f"down{outcome.dst_node}"
    assert delta.per_link_bytes[up] == image + sum(
        b for _, src, _, b, _ in during if src == outcome.src_node)
    assert delta.per_link_bytes[down] == image + sum(
        b for _, _, dst, b, _ in during if dst == outcome.dst_node)
    assert delta.by_kind_messages[mk.MIGRATE_IMAGE] == 1
    assert delta.by_kind_bytes[mk.MIGRATE_IMAGE] == image

    # By-kind, pages and diffs equal a hand count; dropped messages count.
    messages = Counter(kind for kind, *_ in wire)
    nbytes = Counter()
    for kind, _, _, b, _ in wire:
        nbytes[kind] += b
    messages[mk.MIGRATE_IMAGE] += 1
    nbytes[mk.MIGRATE_IMAGE] += image
    assert snap.dropped > 0
    assert snap.by_kind_messages == messages
    assert snap.by_kind_bytes == nbytes
    assert snap.messages == len(wire) + 1
    assert snap.bytes == sum(nbytes.values())
    assert snap.pages == sum(messages[k] for k in PAGE_KINDS) > 0
    assert snap.diffs == sum(
        p["n_diffs"] for kind, *_, p in wire if kind == mk.DIFF_REPLY) > 0

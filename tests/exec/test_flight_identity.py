"""Flight-batched transport: reproduces the goldens, and engages (§13).

Every fan-out whose legs are issued within one scheduler event — FORK
waves, barrier releases, GC rounds, tree-relay hops, page-map and
owner-update shipments — is compiled into one batched pass over the link
occupancy model.  The golden matrix (``tests/golden.py``) pins that this
is invisible: its rows predate the removal of the transport switch, and
its ``+trace`` rows run the same scenarios through the per-message
fallback (tracing disables flights) with identical results and
telemetry.  Here the same runs prove the batched pass actually flew.
Leg-for-leg equivalence with per-message sends is the hypothesis suite
in ``tests/network/test_flight.py``.
"""

import pytest

from repro.api import AdaptEvent, run, spec_from_preset
from repro.apps import APP_NAMES

from ..golden import golden_row


def _switch(row):
    return row.experiment.runtime.switch


def _adapt_spec(label, app="jacobi", **perf):
    return spec_from_preset(
        "tiny", app, 8, calibrated=False, adaptive=True, extra_nodes=2,
        events=(AdaptEvent("leave", 0.03, 3), AdaptEvent("join", 0.06)),
        label=label, perf=perf,
    )


class TestBitwiseIdentity:
    @pytest.mark.parametrize("app", sorted(APP_NAMES))
    def test_every_kernel(self, app):
        assert _switch(golden_row(f"{app}/flat/obs-off")).flights_compiled > 0

    def test_adaptive_leave_join(self):
        row = golden_row("adapt/flat/obs-off")
        assert row.experiment.adaptations >= 1
        assert _switch(row).flights_compiled > 0

    def test_crash_recovery(self):
        assert _switch(golden_row("crash/flat/obs-off")).flights_compiled > 0

    def test_chaos_fault_plan(self):
        # Fault injection forces the per-message fallback: once the plan
        # installs link faults no further flight may compile, so this row
        # pins the *fallback* under faults.
        row = golden_row("chaos/flat/obs-off")
        assert _switch(row).faults is not None

    def test_combining_tree(self):
        # Tree mode routes barrier releases, GC waves, FORK relays and
        # the owner-update drain through tree-hop flights.
        assert _switch(golden_row("adapt/tree/obs-off")).flights_compiled > 0

    def test_fattree_topology(self):
        assert _switch(golden_row("jacobi/fattree/obs-off")).flights_compiled > 0


class TestFlightEngagement:
    def test_fast_path_compiles_flights(self):
        switch = _switch(golden_row("gauss/flat/obs-off"))
        assert switch.flights_compiled > 0
        # Flights carry at least two legs (singles go through plain send).
        assert switch.flight_legs >= 2 * switch.flights_compiled

    def test_flights_off_compiles_nothing(self):
        """Tracing switches flights off: every leg goes per message, and
        the result is the one the flights produced."""
        traced = golden_row("gauss+trace/flat/obs-off")
        assert _switch(traced).flights_compiled == 0
        assert _switch(traced).flight_legs == 0
        flown = golden_row("gauss/flat/obs-off")
        assert traced.digests["result"] == flown.digests["result"]


class TestOwnerUpdateTreeRelay:
    """The leave drain's OWNER_UPDATE broadcast relays through the tree."""

    def test_every_survivor_learns_the_new_owner(self):
        # Gauss keeps pages under single-writer ownership, so the leaver
        # owns pages and the drain actually broadcasts.
        handle = run(_adapt_spec("flight-relay", app="gauss",
                                 barrier_tree=True, barrier_radix=2))
        runtime = handle.experiment.runtime
        master = runtime.master
        npages = handle.experiment.runtime.space.total_pages
        for proc in runtime.procs.values():
            for page in range(npages):
                # Ownership agrees with the master everywhere: a page the
                # relay failed to announce would still name the leaver.
                assert proc.owner_of(page) == master.owner_of(page)

    def test_message_conservation_flat_vs_tree(self):
        # The relay retargets hops, it does not add copies: at most one
        # OWNER_UPDATE per survivor either way.  Tree mode can carry
        # *fewer* — a relay hop runs one latency after the drain, so the
        # rebuild may have renumbered pids away, and the relay drops
        # those instead of forwarding into the new pid space (flat mode
        # loses the same messages later, at the server loop's dst_pid
        # mismatch check).
        flat = run(_adapt_spec("flight-relay-flat", app="gauss"))
        tree = run(_adapt_spec("flight-relay-tree", app="gauss",
                               barrier_tree=True, barrier_radix=2))
        flat_count = (flat.experiment.runtime.switch.stats.snapshot()
                      .by_kind_messages["owner_update"])
        tree_count = (tree.experiment.runtime.switch.stats.snapshot()
                      .by_kind_messages["owner_update"])
        assert flat_count > 0
        assert 0 < tree_count <= flat_count


class TestObsIdentityUnderFlights:
    def test_recorded_telemetry_invariant_under_flights(self):
        # Not just the simulated outputs: the exported telemetry — every
        # span boundary, every counter, the adapt.* tiling — is the same
        # stream of facts whichever transport produced it.
        flown = golden_row("gauss/flat/obs-on")
        per_message = golden_row("gauss+trace/flat/obs-on")
        assert _switch(flown).flights_compiled > 0
        assert _switch(per_message).flights_compiled == 0
        for export in ("metrics", "chrome_trace"):
            assert flown.digests[export] == per_message.digests[export]

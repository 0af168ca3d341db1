"""The batched engine is the engine: it reproduces the goldens and engages.

Every experiment runs on ``Simulator(batch=True)``, which drains whole
``(time, priority)`` runs and fast-forwards quiescent compute-span
phases.  That it changes nothing is pinned by the golden matrix
(``tests/golden.py`` — its rows predate the removal of the engine
switch); that it *does* something is asserted here on the same runs.
Event-for-event order equivalence with the heap engine is the hypothesis
suite in ``tests/simcore/test_batched_order.py``.
"""

import pytest

from repro.apps import APP_NAMES

from ..golden import golden_row


def _sim(row):
    return row.experiment.runtime.sim


class TestBitwiseIdentity:
    @pytest.mark.parametrize("app", sorted(APP_NAMES))
    def test_every_kernel(self, app):
        sim = _sim(golden_row(f"{app}/flat/obs-off"))
        assert sim.batch and sim.ff_phases > 0

    # Adaptive runs always hold a pending non-span event (heartbeats,
    # scripted adapt events), so they are never quiescent: they exercise
    # the fully-checked bucket drain, not the fast-forward.
    def test_adaptive_leave_join(self):
        row = golden_row("adapt/flat/obs-off")
        assert row.experiment.adaptations >= 1
        assert _sim(row).batch

    def test_crash_recovery(self):
        row = golden_row("crash/flat/obs-off")
        assert len(row.experiment.recoveries) == 1
        assert _sim(row).batch

    def test_chaos_fault_plan(self):
        row = golden_row("chaos/flat/obs-off")
        assert len(row.experiment.recoveries) == 1
        assert _sim(row).batch


class TestObsIdentityUnderBatching:
    def test_obs_does_not_perturb_batched_engine(self):
        plain = golden_row("gauss/flat/obs-off")
        observed = golden_row("gauss/flat/obs-on")
        assert plain.digests["result"] == observed.digests["result"]
        assert _sim(plain).events_executed == _sim(observed).events_executed
        assert observed.registry is not None and plain.registry is None

    def test_recorded_telemetry_invariant_under_batching(self):
        # Not just the simulated outputs: the exported telemetry — every
        # span boundary, every counter, the adapt.* tiling — is pinned,
        # and fast-forwarded phases still recorded their compute spans.
        row = golden_row("gauss/flat/obs-on")
        assert {"metrics", "chrome_trace"} <= set(row.digests)
        assert _sim(row).ff_phases > 0
        assert any(span.name == "compute" for span in row.registry.spans)

"""Observability must be invisible to the simulation.

The layer only *records* what already happened (it never yields,
schedules, or perturbs the event queue), so a run with spans and
counters enabled must produce a :class:`ScenarioResult` bitwise
identical — canonical JSON, byte for byte — to the same run with
observability off.  This is the acceptance gate for every new
instrumentation site.
"""

import pytest

from repro.api import AdaptEvent, ObsConfig, run, spec_from_preset
from repro.apps import APP_NAMES


def _observed_and_plain(spec):
    plain = run(spec)
    observed = run(spec, obs=ObsConfig())
    return plain, observed


class TestBitwiseIdentity:
    @pytest.mark.parametrize("app", sorted(APP_NAMES))
    def test_every_kernel_traced(self, app):
        spec = spec_from_preset("tiny", app, 4, label=f"obs-id-{app}")
        plain, observed = _observed_and_plain(spec)
        assert plain.result.to_json() == observed.result.to_json()
        assert observed.registry is not None and plain.registry is None

    def test_adaptive_with_leave(self):
        spec = spec_from_preset(
            "tiny", "jacobi", 8, adaptive=True,
            extra_nodes=2, events=(AdaptEvent("leave", 0.03, 3),),
            label="obs-id-leave",
        )
        plain, observed = _observed_and_plain(spec)
        assert plain.result.to_json() == observed.result.to_json()
        assert observed.result.adaptations >= 1

    def test_materialized_verified(self):
        spec = spec_from_preset("tiny", "jacobi", 4,
                                materialized=True, label="obs-id-mat")
        plain, observed = _observed_and_plain(spec)
        assert plain.result.to_json() == observed.result.to_json()
        assert observed.result.verified is True

    def test_crash_recovery_path(self):
        spec = spec_from_preset(
            "tiny", "jacobi", 4, adaptive=True,
            extra_nodes=1, events=(AdaptEvent("crash", 0.03),),
            checkpoint_interval=0.02, failure_detection=True,
            label="obs-id-crash",
        )
        plain, observed = _observed_and_plain(spec)
        assert plain.result.to_json() == observed.result.to_json()

    def test_disabled_obsconfig_records_nothing(self):
        spec = spec_from_preset("tiny", "nbf", 2, label="obs-id-off")
        report = run(spec, obs=ObsConfig(enabled=False))
        assert report.registry is None
        assert report.cost_breakdown is None

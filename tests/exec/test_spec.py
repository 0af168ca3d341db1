"""ScenarioSpec: canonical JSON, config digests, validation."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.exec import AdaptEvent, ScenarioSpec, spec_from_preset


def base_spec(**kw):
    kw.setdefault("kernel", "jacobi")
    kw.setdefault("params", {"n": 48, "iterations": 3})
    return ScenarioSpec(**kw)


class TestCanonicalForm:
    def test_digest_is_stable(self):
        a, b = base_spec(), base_spec()
        assert a.config_digest() == b.config_digest()
        assert len(a.config_digest()) == 64  # sha256 hex

    def test_canonical_json_is_compact_and_sorted(self):
        text = base_spec().canonical_json()
        assert ": " not in text and ", " not in text
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_param_order_does_not_matter(self):
        a = base_spec(params={"n": 48, "iterations": 3})
        b = base_spec(params={"iterations": 3, "n": 48})
        assert a.config_digest() == b.config_digest()

    def test_label_excluded_from_digest(self):
        assert (base_spec(label="x").config_digest()
                == base_spec(label="y").config_digest())

    @pytest.mark.parametrize("field,value", [
        ("kernel", "gauss"),
        ("params", {"n": 49, "iterations": 3}),
        ("params", {"n": 48, "iterations": 4}),
        ("nprocs", 8),
        ("calibrated", False),
        ("adaptive", True),
        ("materialized", True),
        ("extra_nodes", 2),
        ("events", (AdaptEvent("leave", 0.5),)),
        ("fault_plan", "0.9 crash 1"),
        ("checkpoint_interval", 0.1),
        ("failure_detection", True),
        ("seed", 7),
        ("perf", {"barrier_tree": True}),
    ])
    def test_every_digest_relevant_field_changes_the_digest(self, field, value):
        changed = (base_spec(kernel="gauss", params={"n": 48, "iterations": 3})
                   if field == "kernel" else base_spec(**{field: value}))
        assert changed.config_digest() != base_spec().config_digest()

    def test_specs_pickle_roundtrip(self):
        spec = base_spec(events=(AdaptEvent("crash", 1.0, node=2),),
                         perf={"barrier_tree": True}, seed=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.config_digest() == spec.config_digest()


class TestValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kernel="sor")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            base_spec(params={"n": 48, "rows": 8})

    @pytest.mark.parametrize("perf", [
        {"macro_events": False},  # a host-side switch removed in 2.0.0
        {"bulk_fetch": True},  # the second fetch protocol, removed with its option
        {"barrier_tre": True},
    ])
    def test_unknown_perf_option_rejected(self, perf):
        with pytest.raises(ConfigurationError) as err:
            base_spec(perf=perf)
        assert ("allowed ['barrier_radix', 'barrier_tree', 'topology', "
                "'topology_radix']") in str(err.value)
        wire = dict(base_spec().to_wire(), perf=perf)
        with pytest.raises(ConfigurationError, match=next(iter(perf))):
            ScenarioSpec.from_wire(wire)

    def test_bad_nprocs_rejected(self):
        with pytest.raises(ConfigurationError):
            base_spec(nprocs=0)

    def test_bad_event_action_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptEvent("explode", 1.0)

    def test_negative_event_time_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptEvent("leave", -1.0)

    @pytest.mark.parametrize("action", ["join", "crash"])
    def test_grace_outside_a_leave_rejected(self, action):
        with pytest.raises(ConfigurationError, match="takes no grace period"):
            AdaptEvent(action, 1.0, 2, grace=0.5)
        assert AdaptEvent("leave", 1.0, 2, grace=0.5).grace == 0.5


class TestDerivedProperties:
    def test_effective_adaptive_implied_by_events(self):
        assert not base_spec().effective_adaptive
        assert base_spec(events=(AdaptEvent("leave", 1.0),)).effective_adaptive
        assert base_spec(checkpoint_interval=0.1).effective_adaptive
        assert base_spec(fault_plan="0.9 crash 1").effective_adaptive

    def test_has_crashes_from_events_and_plans(self):
        assert not base_spec(events=(AdaptEvent("leave", 1.0),)).has_crashes
        assert base_spec(events=(AdaptEvent("crash", 1.0),)).has_crashes
        assert base_spec(fault_plan="0.9 crash 1").has_crashes

    def test_display_name(self):
        assert base_spec().display_name == "jacobi-4"
        assert base_spec(label="warm").display_name == "warm"


class TestPresets:
    def test_preset_resolves_explicit_params(self):
        spec = spec_from_preset("tiny", "jacobi", 4)
        assert set(spec.params) == {"n", "iterations"}
        assert all(isinstance(v, int) for v in spec.params.values())

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_preset("huge", "jacobi", 4)

    def test_gauss_iterations_resolved_not_none(self):
        spec = spec_from_preset("bench", "gauss", 8)
        assert spec.params["iterations"] is not None


class TestDefaultNodes:
    def test_two_default_joins_take_distinct_free_nodes(self):
        """The second ``join`` with ``node=None`` must not resolve to the
        node the first one is still pending on (it used to raise
        ``AdaptationError: node 2 already has a pending join``), nor to
        one an explicit join names."""
        from repro.exec.pool import execute_spec

        spec = ScenarioSpec(
            kernel="jacobi", params={"n": 200, "iterations": 30}, nprocs=2,
            extra_nodes=3,
            events=(AdaptEvent("join", 0.004), AdaptEvent("join", 0.002),
                    AdaptEvent("join", 0.003, node=3)),
        )
        res, _ = execute_spec(spec)
        # resolved in time order: 0.002 -> node 2, 0.003 -> node 3
        # (explicit), 0.004 -> node 4
        assert [j.node_id for j in res.runtime.queue.joins] == [2, 3, 4]


class TestOneInstaller:
    """Adapt events are lowered to plan actions and installed through the
    one injector: an event script and its plan text run the same model,
    event for event."""

    SCRIPTS = {
        "leave+default-join": (
            8, 2, {}, (AdaptEvent("leave", 0.03, 3), AdaptEvent("join", 0.06)),
            "0.03 leave 3\n0.06 join 8"),
        "urgent-leave+join": (
            8, 2, {}, (AdaptEvent("leave", 0.03, 3, grace=0.0), AdaptEvent("join", 0.06)),
            "0.03 leave 3 0\n0.06 join 8"),
        "default-crash": (
            4, 1, {"checkpoint_interval": 0.02, "failure_detection": True},
            (AdaptEvent("crash", 0.03),), "0.03 crash 3"),
    }

    @pytest.mark.parametrize("model", ["flat", "tree+fattree"])
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_events_and_plan_text_run_identically(self, script, model):
        from repro.exec.pool import run_spec

        from ..golden import MODELS

        nprocs, extra, fields, events, plan = self.SCRIPTS[script]
        base = spec_from_preset("tiny", "jacobi", nprocs, calibrated=False,
                                extra_nodes=extra, perf=MODELS[model], **fields)
        by_events, _ = run_spec(base.replaced(events=events))
        by_plan, _ = run_spec(base.replaced(fault_plan=plan))
        assert by_events.adaptations + len(by_events.recoveries) > 0
        assert by_events.to_json() == by_plan.to_json()

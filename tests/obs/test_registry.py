"""The span/counter/instant primitives: recording, querying, the null
registry."""

import pytest

from repro.api import AdaptEvent, run, spec_from_preset
from repro.obs import (
    NULL_OBS,
    Counter,
    Instant,
    NullRegistry,
    ObsConfig,
    Registry,
    Span,
)
from repro.simcore import Simulator


class TestSpan:
    def test_duration(self):
        s = Span(track="adapt", name="adapt.gc", start=1.0, end=3.5)
        assert s.duration == 2.5

    def test_frozen(self):
        s = Span(track="adapt", name="adapt.gc", start=0.0, end=1.0)
        with pytest.raises(AttributeError):
            s.end = 2.0

    def test_args_carried(self):
        s = Span(track="adapt", name="adapt.gc", start=0.0, end=1.0,
                 args={"joins": 1, "leaves": 0})
        assert s.args["joins"] == 1


class TestRegistry:
    def test_record_and_select(self):
        reg = Registry()
        reg.span("adapt", "adapt.gc", 0.0, 1.0)
        reg.span("adapt", "adapt.repartition", 1.0, 1.5)
        reg.span("P0", "barrier.wait", 0.2, 0.3)
        assert len(reg.spans) == 3
        assert [s.name for s in reg.select(track="adapt")] == [
            "adapt.gc", "adapt.repartition"]
        assert [s.name for s in reg.select(prefix="adapt.")] == [
            "adapt.gc", "adapt.repartition"]
        assert reg.select(name="barrier.wait")[0].track == "P0"

    def test_total(self):
        reg = Registry()
        reg.span("adapt", "adapt.gc", 0.0, 1.0)
        reg.span("adapt", "adapt.gc", 2.0, 2.25)
        assert reg.total("adapt.gc") == pytest.approx(1.25)
        assert reg.total("never.recorded") == 0.0

    def test_counters_accumulate(self):
        reg = Registry()
        reg.count("adapt.events")
        reg.count("adapt.events")
        reg.count("adapt.traffic_bytes", 4096)
        assert reg.counter_value("adapt.events") == 2
        assert reg.counter_value("adapt.traffic_bytes") == 4096
        assert reg.counter_value("missing") == 0.0

    def test_tracks_order_processes_numerically_last(self):
        reg = Registry()
        for track in ("P10", "P2", "network", "P0", "master", "adapt"):
            reg.span(track, "x", 0.0, 1.0)
        tracks = reg.tracks()
        assert tracks[-3:] == ["P0", "P2", "P10"]
        assert set(tracks[:-3]) == {"adapt", "master", "network"}

    def test_merge(self):
        a, b = Registry(), Registry()
        a.span("adapt", "adapt.gc", 0.0, 1.0)
        a.count("n", 1)
        b.span("adapt", "adapt.gc", 1.0, 2.0)
        b.count("n", 2)
        a.merge([b])
        assert len(a.spans) == 2
        assert a.counter_value("n") == 3

    def test_merge_carries_instants(self):
        a, b = Registry(), Registry()
        a.instant(1.0, "fault", "crash", "node2")
        b.instant(2.0, "adapt", "freeze", "")
        a.merge([b])
        assert a.instants == [Instant(1.0, "fault", "crash", "node2"),
                              Instant(2.0, "adapt", "freeze", "")]

    def test_enabled_flag(self):
        assert Registry().enabled is True
        assert NullRegistry().enabled is False
        assert NULL_OBS.enabled is False


class TestNullRegistry:
    def test_records_nothing(self):
        NULL_OBS.span("adapt", "adapt.gc", 0.0, 1.0)
        NULL_OBS.count("adapt.events")
        NULL_OBS.instant(1.0, "fault", "crash", "node1")
        assert list(NULL_OBS.spans) == []
        assert NULL_OBS.counter_value("adapt.events") == 0.0
        assert list(NULL_OBS.instants) == []

    def test_default_simulator_records_no_instant(self):
        sim = Simulator()
        sim.obs.instant(sim.now, "tmk", "fork", "#1 phase")
        assert sim.obs is NULL_OBS and list(sim.obs.instants) == []


def _is_dense(instant):
    """The per-message and per-page kinds ``per_process`` gates."""
    if instant.category == "net":
        return instant.subject not in ("cut", "dropped", "delayed", "duplicated")
    return instant.category == "dsm" and instant.subject in ("page_fetch", "demote")


#: A crash with recovery (``fault``, ``plan``) and an urgent leave whose
#: write sharing demotes pages (``adapt``, ``dsm/demote``); both fork
#: (``tmk``) and fetch pages over the wire (``net``, ``dsm/page_fetch``).
_SPECS = {
    "crash": spec_from_preset(
        "tiny", "jacobi", 4, adaptive=True, extra_nodes=1,
        events=(AdaptEvent("crash", 0.03),), checkpoint_interval=0.02,
        failure_detection=True),
    "urgent-leave": spec_from_preset(
        "tiny", "nbf", 4, adaptive=True, extra_nodes=1,
        events=(AdaptEvent("leave", 0.03, 3),)),
}


@pytest.fixture(scope="module")
def instant_runs():
    """Each scenario's instants, by (name, ``per_process``)."""
    return {
        (name, per_process): run(spec, obs=ObsConfig(per_process=per_process))
        .registry.instants
        for name, spec in _SPECS.items() for per_process in (True, False)
    }


class TestInstants:
    def test_time_order_and_filter(self):
        sim = Simulator(obs=Registry())

        def proc():
            yield sim.timeout(2.0)
            sim.obs.instant(sim.now, "adapt", "join_request", "node3")
            yield sim.timeout(1.0)
            sim.obs.instant(sim.now, "adapt", "freeze", "")
            sim.obs.instant(sim.now, "dsm", "gc", "P0 epoch=1")

        sim.process(proc())
        sim.run()
        reg = sim.obs
        assert [i.time for i in reg.instants] == [2.0, 3.0, 3.0]
        assert [i.time for i in reg.select_instants(category="adapt")] == [2.0, 3.0]
        assert reg.select_instants(subject="gc")[0].category == "dsm"
        assert reg.select_instants("adapt", "freeze") == [
            Instant(3.0, "adapt", "freeze", "")]
        assert reg.tracks() == ["adapt", "dsm"]

    def test_frozen(self):
        i = Instant(1.0, "fault", "crash", "node1")
        with pytest.raises(AttributeError):
            i.time = 2.0

    def test_run_instants_in_time_order(self, instant_runs):
        for instants in instant_runs.values():
            times = [i.time for i in instants]
            assert times == sorted(times)

    def test_per_process_off_drops_only_dense_kinds(self, instant_runs):
        for name in _SPECS:
            full, sparse = instant_runs[name, True], instant_runs[name, False]
            assert any(_is_dense(i) for i in full)
            assert sparse == [i for i in full if not _is_dense(i)]

    def test_every_kind_recorded(self, instant_runs):
        full = [i for name in _SPECS for i in instant_runs[name, True]]
        sparse = [i for name in _SPECS for i in instant_runs[name, False]]
        dense = {(i.category, i.subject) for i in full if _is_dense(i)}
        assert {("dsm", "page_fetch"), ("dsm", "demote")} <= dense
        assert any(category == "net" for category, _ in dense)
        assert {i.category for i in sparse} == {"adapt", "dsm", "fault", "plan", "tmk"}


class TestObsConfig:
    def test_default_enabled(self):
        cfg = ObsConfig()
        assert cfg.enabled and cfg.per_process
        assert isinstance(cfg.make_registry(), Registry)

    def test_disabled_yields_null(self):
        reg = ObsConfig(enabled=False).make_registry()
        assert reg is NULL_OBS

    def test_counter_dataclass(self):
        c = Counter(name="n", value=3.0)
        c.add(1.5)
        assert c.name == "n" and c.value == 4.5

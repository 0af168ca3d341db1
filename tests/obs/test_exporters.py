"""Chrome-trace / metrics exporters and their checked-in JSON schemas."""

import json

import pytest

from repro.api import AdaptEvent, ObsConfig, run, spec_from_preset
from repro.obs import Registry
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    metrics_dict,
    pool_trace,
    pool_utilization,
)
from repro.obs.schema import (
    SchemaError,
    validate_metrics,
    validate_metrics_file,
    validate_trace,
    validate_trace_file,
)


@pytest.fixture(scope="module")
def observed():
    spec = spec_from_preset(
        "tiny", "jacobi", 8, adaptive=True,
        extra_nodes=2, events=(AdaptEvent("leave", 0.03, 3),),
        label="exporters",
    )
    return run(spec, obs=ObsConfig())


class TestChromeTrace:
    def test_structure(self, observed):
        doc = chrome_trace(observed.registry)
        assert doc["otherData"]["schema"] == TRACE_SCHEMA
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "C", "i"}

    def test_one_metadata_event_per_track(self, observed):
        doc = chrome_trace(observed.registry)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"]
        assert names == observed.registry.tracks()
        assert len(set(names)) == len(names)

    def test_timestamps_are_simulated_microseconds(self, observed):
        doc = chrome_trace(observed.registry)
        total = next(e for e in doc["traceEvents"]
                     if e["ph"] == "X" and e["name"] == "adapt.total")
        span = observed.registry.select(name="adapt.total")[0]
        assert total["ts"] == pytest.approx(span.start * 1e6)
        assert total["dur"] == pytest.approx(span.duration * 1e6)

    def test_meta_merged_into_other_data(self, observed):
        doc = chrome_trace(observed.registry, meta={"scenario": "x"})
        assert doc["otherData"]["scenario"] == "x"

    def test_validates_against_checked_in_schema(self, observed):
        validate_trace(chrome_trace(observed.registry))

    def test_schema_rejects_tampered_event(self, observed):
        doc = chrome_trace(observed.registry)
        doc["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(SchemaError):
            validate_trace(doc)

    def test_written_file_loads_and_validates(self, observed, tmp_path):
        path = tmp_path / "trace.json"
        observed.write_trace(str(path))
        payload = json.loads(path.read_text())
        assert payload["otherData"]["scenario"] == "exporters"
        validate_trace_file(str(path))


class TestInstantExport:
    @pytest.fixture(scope="class")
    def crashed(self):
        spec = spec_from_preset(
            "tiny", "jacobi", 4, adaptive=True,
            extra_nodes=1, events=(AdaptEvent("crash", 0.03),),
            checkpoint_interval=0.02, failure_detection=True)
        return run(spec, obs=ObsConfig())

    def test_crash_and_recovery_on_the_fault_track(self, crashed):
        doc = chrome_trace(crashed.registry)
        validate_trace(doc)
        events = doc["traceEvents"]
        tracks = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        fault = [e for e in events
                 if e["ph"] == "i" and tracks[e["tid"]] == "fault"]
        names = [e["name"] for e in fault]
        assert names.count("crash") == 1 and names.count("recovery_end") == 1
        assert names.index("crash") < names.index("recovery_end")
        crash = fault[names.index("crash")]
        assert crash["s"] == "t" and crash["cat"] == "fault"
        (instant,) = crashed.registry.select_instants("fault", "crash")
        assert crash["ts"] == pytest.approx(instant.time * 1e6)
        assert crash["args"] == {"detail": instant.detail}

    def test_counters_stamped_after_the_last_instant(self, crashed):
        events = chrome_trace(crashed.registry)["traceEvents"]
        last = max(e["ts"] for e in events if e["ph"] == "i")
        assert all(e["ts"] >= last for e in events if e["ph"] == "C")

    def test_schema_rejects_unknown_instant_scope(self, crashed):
        doc = chrome_trace(crashed.registry)
        next(e for e in doc["traceEvents"] if e["ph"] == "i")["s"] = "x"
        with pytest.raises(SchemaError):
            validate_trace(doc)


class TestMetrics:
    def test_payload_shape(self, observed):
        doc = metrics_dict(observed.registry,
                           breakdown=observed.cost_breakdown)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["counters"]["adapt.events"] >= 1
        assert doc["spans"]["adapt.total"]["count"] >= 1
        assert doc["breakdown"]["adaptation_seconds"] > 0

    def test_written_file_validates(self, observed, tmp_path):
        path = tmp_path / "metrics.json"
        observed.write_metrics(str(path))
        payload = json.loads(path.read_text())
        assert payload["result"]["runtime_seconds"] > 0
        validate_metrics_file(str(path))

    def test_schema_rejects_missing_breakdown(self, observed):
        doc = metrics_dict(observed.registry)
        del doc["breakdown"]
        with pytest.raises(SchemaError):
            validate_metrics(doc)


class TestPoolTrace:
    def _outcome(self, tmp_path, jobs=2, **kwargs):
        from repro.api import sweep
        from repro.exec import ResultCache

        specs = [
            spec_from_preset("tiny", "jacobi", n, label=f"pool-{n}")
            for n in (2, 4)
        ]
        cache = ResultCache(root=tmp_path / "cache")
        return sweep(specs, jobs=jobs, cache=cache, **kwargs)

    def test_worker_spans_and_meta(self, tmp_path):
        outcome = self._outcome(tmp_path)
        doc = pool_trace(outcome)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        assert {e["name"] for e in spans} == {"pool-2", "pool-4"}
        for e in spans:
            assert e["dur"] > 0
            assert len(e["args"]["digest"]) == 12
        assert doc["otherData"]["jobs"] == 2
        assert doc["otherData"]["executed"] == 2
        assert 0.0 < doc["otherData"]["utilization"] <= 1.0
        validate_trace(doc)
        # one track per launched worker, clocked from the sweep's start
        # (so the spans sit after the spawns, inside the sweep's wall)
        for task in outcome.outcomes:
            assert task.worker in (0, 1) and task.worker_id == ""
            assert task.worker == task.attempt_log[-1].worker
            assert 0.0 < task.started_at < task.ended_at \
                <= outcome.wall_seconds
        assert len({e["tid"] for e in spans}) \
            == len({t.worker for t in outcome.outcomes})

    def test_cache_hits_take_no_pool_time(self, tmp_path):
        self._outcome(tmp_path)
        warm = self._outcome(tmp_path)
        assert warm.cache_hits == 2
        doc = pool_trace(warm)
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []
        assert pool_utilization(warm) == 0.0
        assert all(t.worker == -1 for t in warm.outcomes)

    def test_degraded_and_remote_tasks_take_no_worker_track(
            self, tmp_path, monkeypatch):
        from repro.exec import (
            Coordinator,
            RetryPolicy,
            SupervisorPolicy,
            Worker,
            submit_outcome,
        )
        from repro.exec.chaos import CHAOS_ENV, ChaosPlan

        # Every attempt of every worker process dies (and, a plan being
        # active, the caller only supervises): the sweep degrades.
        plan = ChaosPlan(seed=3, kill_rate=1.0, max_kills_per_task=10)
        with monkeypatch.context() as patched:
            patched.setenv(CHAOS_ENV, str(plan.write(tmp_path / "plan.json")))
            degraded = self._outcome(tmp_path, supervisor=SupervisorPolicy(
                retry=RetryPolicy(max_attempts=10, base_delay=0.01),
                degrade_after=1))
        assert degraded.degraded
        for task in degraded.outcomes:
            assert task.worker == -2
            assert task.attempt_log[-1].detail == "serial degradation"
            assert task.ended_at > task.started_at
        with Coordinator(cache=None) as co, Worker(co.address):
            remote = submit_outcome([t.spec for t in degraded.outcomes],
                                    co.address)
        assert all(t.worker == -3 and t.worker_id == "w1"
                   for t in remote.outcomes)
        for outcome in (degraded, remote):
            doc = pool_trace(outcome)
            assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_serial_path_records_timeline_too(self, tmp_path):
        outcome = self._outcome(tmp_path, jobs=1)
        assert all(t.worker == 0 for t in outcome.outcomes)
        assert all(t.ended_at > t.started_at for t in outcome.outcomes)
        validate_trace(pool_trace(outcome))


class TestSchemaValidator:
    def test_event_requires_name(self):
        reg = Registry()
        reg.span("adapt", "x", 0.0, 1.0)
        reg.count("n", 2)
        doc = chrome_trace(reg)
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        del counter["name"]
        with pytest.raises(SchemaError):
            validate_trace(doc)

    def test_negative_timestamp_rejected(self):
        reg = Registry()
        reg.span("adapt", "x", 0.0, 1.0)
        doc = chrome_trace(reg)
        next(e for e in doc["traceEvents"] if e["ph"] == "X")["ts"] = -1.0
        with pytest.raises(SchemaError):
            validate_trace(doc)

    def test_top_level_type_enforced(self):
        with pytest.raises(SchemaError):
            validate_trace([])

"""The repro.api facade, and where a run's reliability counters are read."""

import pytest

from repro.api import (
    AdaptEvent,
    ObsConfig,
    RunReport,
    run,
    spec_from_preset,
    sweep,
)
from repro.dsm.runtime import RunResult


def tiny_spec(**kw):
    kw.setdefault("label", "api-test")
    return spec_from_preset("tiny", "jacobi", 4, **kw)


class TestRun:
    def test_unobserved_report(self):
        report = run(tiny_spec())
        assert isinstance(report, RunReport)
        assert report.result.runtime_seconds > 0
        assert report.experiment.app_name == "jacobi"
        assert report.registry is None and report.cost_breakdown is None
        assert report.wall_seconds > 0

    def test_observed_report(self):
        report = run(tiny_spec(label="api-obs"), obs=ObsConfig())
        assert report.registry is not None
        assert report.cost_breakdown is not None
        assert len(report.registry.spans) > 0

    def test_write_handles_require_registry(self):
        report = run(tiny_spec())
        with pytest.raises(ValueError, match="not observed"):
            report.write_trace("/tmp/never-written.json")

    def test_auto_export_paths(self, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        run(tiny_spec(label="api-exp"),
            obs=ObsConfig(trace_path=str(trace), metrics_path=str(metrics)))
        assert trace.exists() and metrics.exists()

    def test_same_result_as_engine(self):
        from repro.exec.pool import run_spec

        spec = tiny_spec(label="api-vs-engine")
        assert run(spec).result.to_json() == run_spec(spec)[0].to_json()


class TestSweepFacade:
    def test_sweep_returns_outcomes_in_spec_order(self, tmp_path):
        from repro.exec import ResultCache

        specs = [tiny_spec(label=f"api-sweep-{n}") for n in (1, 2)]
        cache = ResultCache(root=tmp_path / "cache")
        outcome = sweep(specs, jobs=1, cache=cache)
        assert [o.spec.label for o in outcome.outcomes] == [
            "api-sweep-1", "api-sweep-2"]
        assert sweep(specs, jobs=1, cache=cache).results == outcome.results

    def test_one_way_to_run_a_batch(self):
        """An engine is a function ``specs -> SweepOutcome``: the facade's
        signature is the whole configuration surface, and the executor
        layer stays deleted."""
        import inspect

        import repro.api
        import repro.exec

        assert list(inspect.signature(sweep).parameters) == [
            "specs", "jobs", "cache", "refresh", "progress", "supervisor",
            "obs"]
        for name in ("ExecutorConfig", "Executor", "LocalExecutor",
                     "SerialExecutor", "RemoteExecutor", "make_executor",
                     "BACKENDS"):
            assert not hasattr(repro.exec, name), name
            assert not hasattr(repro.api, name), name
        assert not hasattr(repro.api, "run_many")

    def test_cli_remote_route_refuses_a_degraded_outcome(
            self, monkeypatch, capsys):
        """``--coordinator`` goes through ``submit_outcome``; a coordinator
        that handed tasks back is an error, not a table with holes."""
        from repro.cli import main
        from repro.exec import CacheStats, SweepOutcome, TaskOutcome, service

        def handed_back(specs, address, **kwargs):
            return SweepOutcome(
                outcomes=[TaskOutcome(i, spec, None, 0.0, cached=False,
                                      attempts=1, worker=-2)
                          for i, spec in enumerate(specs)],
                cache_stats=CacheStats(), jobs=1, executed=len(specs),
                retried=0, degraded=True)

        monkeypatch.setattr(service, "submit_outcome", handed_back)
        rc = main(["sweep", "--apps", "jacobi", "--nodes", "1",
                   "--preset", "tiny", "--coordinator", "coord.example:7070"])
        err = capsys.readouterr().err
        assert rc != 0
        assert "coord.example:7070" in err
        assert "handed scenarios back" in err


class TestRunResultCompatShim:
    """``RunResult`` and ``ExperimentResult`` hold no copies of the
    reliability counters: the wire's are in ``traffic``, the failure
    detector's on the runtime.
    (The class and its tests keep their names because the test ids are
    pinned.)"""

    def _result(self):
        return RunResult(runtime_seconds=1.0, traffic=None, per_process={}, forks=0)

    def test_nested_access(self):
        res = self._result()
        for copy in ("network", "detector"):
            assert not hasattr(res, copy)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            self._result().no_such_field
        with pytest.raises(AttributeError):
            self._result().dropped  # the pre-2.0 flat spelling is gone

    def test_end_to_end_run_populates_nested(self):
        spec = tiny_spec(label="api-shim-e2e", adaptive=True, extra_nodes=1,
                         events=(AdaptEvent("crash", 0.03),),
                         checkpoint_interval=0.02, failure_detection=True)
        report = run(spec)
        exp, result = report.experiment, report.result
        detector = exp.runtime.detector
        assert detector.heartbeats_sent > 0
        for copy in ("dropped", "retransmissions", "heartbeats_sent",
                     "heartbeat_misses", "false_suspicions"):
            assert not hasattr(exp, copy)
        assert result.heartbeats_sent == detector.heartbeats_sent
        assert result.heartbeat_misses == detector.heartbeat_misses
        assert result.retransmissions == exp.run_result.traffic.retransmissions


class TestDeprecatedEntrypoints:
    """(Name pinned; the deprecated entrypoints themselves are gone.)"""

    def test_lazy_repro_api_attribute(self):
        import repro

        assert repro.api.run is run

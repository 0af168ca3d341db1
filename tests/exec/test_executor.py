"""The transport-agnostic Executor API.

The contract under test: ``local``, ``serial`` and ``remote`` are
*interchangeable* — same specs in, bitwise-identical ``SweepOutcome``
out — and :class:`ExecutorConfig` is the one knob bag all of them (and
the CLI's shared ``--jobs/--cache-dir/--no-cache/--refresh/--executor``
flags) resolve through.
"""

import pytest

from repro.errors import ConfigurationError, ExecError
from repro.exec import ResultCache, Worker, spec_from_preset
from repro.exec.executor import (
    BACKENDS,
    Executor,
    ExecutorConfig,
    LocalExecutor,
    RemoteExecutor,
    SerialExecutor,
    make_executor,
)
from repro.exec.service import Coordinator


def tiny_specs(counts=(1, 2)):
    return [spec_from_preset("tiny", "jacobi", n, calibrated=False)
            for n in counts]


class TestExecutorConfig:
    def test_defaults_validate(self):
        cfg = ExecutorConfig().validate()
        assert cfg.backend == "local" and cfg.use_cache

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            ExecutorConfig(jobs=0).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            ExecutorConfig(backend="carrier-pigeon").validate()

    def test_remote_needs_a_coordinator(self):
        with pytest.raises(ConfigurationError, match="coordinator"):
            ExecutorConfig(backend="remote").validate()

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            ExecutorConfig(retries=-1).validate()

    def test_supervisor_policy_reflects_the_knobs(self):
        policy = ExecutorConfig(retries=2, deadline_floor=7.0,
                                degrade_after=5).supervisor_policy()
        assert policy.retry.max_attempts == 3
        assert policy.deadline.floor_seconds == 7.0
        assert policy.degrade_after == 5

    def test_effective_jobs_resolves_none_to_cores(self):
        import os

        assert ExecutorConfig(jobs=4).effective_jobs() == 4
        assert ExecutorConfig().effective_jobs() == (os.cpu_count() or 1)

    def test_replaced_keeps_the_rest(self):
        cfg = ExecutorConfig(jobs=2).replaced(backend="serial")
        assert cfg.jobs == 2 and cfg.backend == "serial"

    def test_make_cache_honors_use_cache(self, tmp_path):
        off = ExecutorConfig(use_cache=False, cache_dir=str(tmp_path))
        on = ExecutorConfig(cache_dir=str(tmp_path))
        assert off.make_cache() is None
        assert isinstance(on.make_cache(), ResultCache)


class TestMakeExecutor:
    def test_backend_name_maps_to_class(self):
        assert isinstance(make_executor(ExecutorConfig(use_cache=False)),
                          LocalExecutor)
        assert isinstance(
            make_executor(ExecutorConfig(backend="serial", use_cache=False)),
            SerialExecutor)
        assert isinstance(
            make_executor(ExecutorConfig(backend="remote",
                                         coordinator="h:1")),
            RemoteExecutor)
        assert BACKENDS == ("local", "serial", "remote")

    def test_every_backend_satisfies_the_protocol(self):
        for cfg in (ExecutorConfig(use_cache=False),
                    ExecutorConfig(backend="serial", use_cache=False),
                    ExecutorConfig(backend="remote", coordinator="h:1")):
            assert isinstance(make_executor(cfg), Executor)

    def test_remote_rejects_a_client_side_cache(self, tmp_path):
        with pytest.raises(ExecError, match="coordinator's cache"):
            make_executor(ExecutorConfig(backend="remote", coordinator="h:1"),
                          cache=ResultCache(root=tmp_path))


class TestBackendInterchangeability:
    def test_serial_local_and_remote_agree_bitwise(self, tmp_path):
        specs = tiny_specs()
        serial = make_executor(
            ExecutorConfig(backend="serial",
                           cache_dir=str(tmp_path / "s"))).execute(specs)
        parallel = make_executor(
            ExecutorConfig(jobs=2,
                           cache_dir=str(tmp_path / "l"))).execute(specs)
        with Coordinator(cache=ResultCache(root=tmp_path / "r")) as co, \
                Worker(co.address):
            remote = make_executor(
                ExecutorConfig(backend="remote",
                               coordinator=co.address)).execute(specs)
        reference = [r.to_json() for r in serial.results]
        assert [r.to_json() for r in parallel.results] == reference
        assert [r.to_json() for r in remote.results] == reference

    def test_progress_streams_in_completion_order(self, tmp_path):
        seen = []
        make_executor(
            ExecutorConfig(backend="serial", cache_dir=str(tmp_path))
        ).execute(tiny_specs(),
                  progress=lambda o, done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestSweepFacade:
    def test_sweep_accepts_backend_name_config_and_instance(self, tmp_path):
        from repro.api import sweep

        specs = tiny_specs((1,))
        cfg = ExecutorConfig(backend="serial", cache_dir=str(tmp_path))
        by_config = sweep(specs, executor=cfg)
        by_instance = sweep(specs, executor=make_executor(cfg))
        legacy = sweep(specs, jobs=1)
        assert (by_config.results[0].to_json()
                == by_instance.results[0].to_json()
                == legacy.results[0].to_json())

    def test_sweep_rejects_engine_knobs_alongside_an_executor(self):
        from repro.api import sweep

        with pytest.raises(ExecError, match="jobs"):
            sweep(tiny_specs((1,)), executor="serial", jobs=2)
        with pytest.raises(ExecError, match="supervisor"):
            sweep(tiny_specs((1,)), executor="serial", supervisor=object())

    def test_sweep_rejects_a_non_executor(self):
        from repro.api import sweep

        with pytest.raises(ExecError, match="backend name"):
            sweep(tiny_specs((1,)), executor=42)


class TestExecParamsShim:
    """(Name pinned; the ``ExecParams`` alias itself is gone.)"""

    def test_unknown_config_attribute_still_raises(self):
        import repro.config as config

        with pytest.raises(AttributeError):
            config.NoSuchKnob
        with pytest.raises(AttributeError):
            config.ExecParams  # the pre-2.0 spelling of ExecutorConfig

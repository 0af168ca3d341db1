"""Tests for configuration validation and derived quantities."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import repro.bench.scale

from repro.config import (
    CheckpointParams,
    DsmParams,
    MigrationParams,
    NetworkParams,
    PAPER_CONFIG,
    PerfParams,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestNetworkParams:
    def test_defaults_valid(self):
        NetworkParams().validate()

    def test_calibration_identities(self):
        p = NetworkParams()
        # 1-byte RTT
        assert 2 * p.one_way_latency == pytest.approx(126e-6)
        # full page transfer decomposition
        total = (
            2 * p.one_way_latency
            + 4096 * p.per_byte
            + p.page_service_server
            + p.page_service_client
        )
        assert total == pytest.approx(1308e-6, rel=0.01)

    def test_message_time(self):
        p = NetworkParams()
        assert p.message_time(0) == p.one_way_latency
        assert p.message_time(12500) == pytest.approx(p.one_way_latency + 1e-3)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkParams(per_byte=0).validate()


class TestDsmParams:
    def test_defaults_valid(self):
        DsmParams().validate()

    def test_page_size_power_of_two(self):
        with pytest.raises(ConfigurationError):
            DsmParams(page_size=3000).validate()
        with pytest.raises(ConfigurationError):
            DsmParams(page_size=0).validate()

    def test_interval_limit_positive(self):
        with pytest.raises(ConfigurationError):
            DsmParams(gc_interval_limit=0).validate()


class TestMigrationParams:
    def test_spawn_time_range(self):
        p = MigrationParams()
        assert p.spawn_time(0.0) == pytest.approx(0.6)
        assert p.spawn_time(0.999) == pytest.approx(0.8, rel=0.01)

    def test_copy_time_at_paper_rate(self):
        p = MigrationParams()
        assert p.copy_time(8_100_000) == pytest.approx(1.0)

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError):
            MigrationParams(spawn_time_min=0.9, spawn_time_max=0.8).validate()
        with pytest.raises(ConfigurationError):
            MigrationParams(image_rate=0).validate()


class TestSystemConfig:
    def test_paper_config_valid(self):
        PAPER_CONFIG.validate()

    def test_with_replaces_fields(self):
        cfg = SystemConfig().with_(grace_period=10.0)
        assert cfg.grace_period == 10.0
        assert SystemConfig().grace_period == 3.0  # original untouched

    def test_negative_grace_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(grace_period=-1).validate()

    def test_checkpoint_params(self):
        with pytest.raises(ConfigurationError):
            CheckpointParams(disk_rate=0).validate()


def test_every_model_option_is_set_outside_tests():
    """A ``PerfParams`` field that neither a spine workload nor the scale
    bench sets has one value in use: make it a constant or delete it."""
    root = Path(__file__).resolve().parents[1]
    users = (root / "benchmarks" / "spine" / "workloads.py").read_text()
    users += Path(repro.bench.scale.__file__).read_text()
    unused = [f.name for f in fields(PerfParams)
              if not re.search(rf"\b{f.name}\b", users)]
    assert unused == []

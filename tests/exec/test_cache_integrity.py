"""Cache integrity: checksums, quarantine, and re-execution.

Every cache entry carries a SHA-256 checksum of the result's canonical
JSON, verified on read.  Damaged entries (corrupt JSON, checksum or
digest mismatch, undeserializable payload) must never be served: they are
quarantined into ``<root>/quarantine/`` and the scenario re-executes.
Stale entries (older schema or code version) are merely invalidated in
place — overwriting them is enough.
"""

import json

import pytest

from repro.exec import ResultCache, ScenarioSpec
from repro.exec.cache import CACHE_SCHEMA
from repro.exec.chaos import corrupt_cache_entries
from repro.exec.pool import run_spec, run_specs
from repro.exec.result import canonical_checksum


@pytest.fixture(scope="module")
def executed():
    """One real (spec, result) pair, computed once for the module."""
    spec = ScenarioSpec(kernel="jacobi", params={"n": 32, "iterations": 2},
                        nprocs=2, seed=5000, label="integrity")
    result, wall = run_spec(spec)
    return spec, result, wall


def fresh_cache(tmp_path, executed):
    spec, result, wall = executed
    cache = ResultCache(root=tmp_path)
    cache.put(spec, result, wall_seconds=wall)
    return cache, spec, result


class TestChecksum:
    def test_checksum_is_canonical_and_stable(self, executed):
        _, result, _ = executed
        assert result.checksum() == canonical_checksum(result.to_dict())
        assert len(result.checksum()) == 64

    def test_entry_stores_matching_checksum(self, tmp_path, executed):
        cache, spec, result = fresh_cache(tmp_path, executed)
        entry = json.loads(cache.path(spec).read_text())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["checksum"] == canonical_checksum(entry["result"])

    def test_intact_entry_hits(self, tmp_path, executed):
        cache, spec, result = fresh_cache(tmp_path, executed)
        hit = ResultCache(root=tmp_path).get(spec)
        assert hit is not None
        assert hit.result.to_json() == result.to_json()


class TestDamageDetection:
    def test_payload_tamper_fails_checksum_and_quarantines(
            self, tmp_path, executed):
        cache, spec, result = fresh_cache(tmp_path, executed)
        path = cache.path(spec)
        entry = json.loads(path.read_text())
        entry["result"]["runtime_seconds"] += 1.0  # silent data corruption
        path.write_text(json.dumps(entry))

        reader = ResultCache(root=tmp_path)
        assert reader.get(spec) is None
        assert reader.stats.misses == 1
        assert reader.stats.invalidations == 1
        assert reader.stats.corrupt == 1
        assert reader.stats.quarantined == 1
        assert not path.exists()
        assert (reader.quarantine_root / f"{path.name}.checksum").exists()

    def test_truncation_quarantines_as_unreadable(self, tmp_path, executed):
        cache, spec, _ = fresh_cache(tmp_path, executed)
        damaged = corrupt_cache_entries(tmp_path, seed=0, count=1,
                                        modes=("truncate",))
        assert [m for _, m in damaged] == ["truncate"]
        reader = ResultCache(root=tmp_path)
        assert reader.get(spec) is None
        assert reader.stats.corrupt == 1
        names = [p.name for p in reader.quarantine_root.iterdir()]
        assert names == [f"{cache.path(spec).name}.unreadable"]

    def test_seeded_bitflip_is_detected(self, tmp_path, executed):
        cache, spec, _ = fresh_cache(tmp_path, executed)
        damaged = corrupt_cache_entries(tmp_path, seed=11, count=1,
                                        modes=("bitflip",))
        assert len(damaged) == 1
        reader = ResultCache(root=tmp_path)
        assert reader.get(spec) is None
        assert reader.stats.corrupt == 1
        assert reader.stats.quarantined == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_bitflip_lands_in_the_checksummed_payload(self, tmp_path,
                                                      executed, seed):
        """The flip damages the result, never the unchecked spec echo or
        the ``meta`` block, so every seed's damage is detected."""
        cache, spec, _ = fresh_cache(tmp_path, executed)
        corrupt_cache_entries(tmp_path, seed=seed, count=1, modes=("bitflip",))
        assert ResultCache(root=tmp_path).get(spec) is None

    def test_digest_mismatch_quarantines(self, tmp_path, executed):
        cache, spec, _ = fresh_cache(tmp_path, executed)
        other = spec.replaced(seed=spec.seed + 1)
        # a foreign entry squatting under another spec's digest
        cache.path(other).write_text(cache.path(spec).read_text())
        reader = ResultCache(root=tmp_path)
        assert reader.get(other) is None
        assert (reader.quarantine_root
                / f"{cache.path(other).name}.mismatch").exists()

    def test_undeserializable_payload_quarantines(self, tmp_path, executed):
        cache, spec, _ = fresh_cache(tmp_path, executed)
        path = cache.path(spec)
        entry = json.loads(path.read_text())
        del entry["result"]["runtime_seconds"]  # schema-valid, but broken
        entry["checksum"] = canonical_checksum(entry["result"])
        path.write_text(json.dumps(entry))
        reader = ResultCache(root=tmp_path)
        assert reader.get(spec) is None
        assert (reader.quarantine_root / f"{path.name}.payload").exists()


class TestStaleIsNotDamaged:
    def test_version_mismatch_invalidates_without_quarantine(
            self, tmp_path, executed):
        spec, result, wall = executed
        ResultCache(root=tmp_path, salt="old").put(spec, result,
                                                   wall_seconds=wall)
        reader = ResultCache(root=tmp_path, salt="new")
        assert reader.get(spec) is None
        assert reader.stats.invalidations == 1
        assert reader.stats.corrupt == 0
        assert reader.path(spec).exists()  # left in place for overwrite
        assert not reader.quarantine_root.exists()

    def test_quarantine_dir_is_lazy(self, tmp_path, executed):
        cache, spec, _ = fresh_cache(tmp_path, executed)
        assert ResultCache(root=tmp_path).get(spec) is not None
        assert not cache.quarantine_root.exists()


class TestReExecution:
    def test_corrupted_entry_is_reexecuted_to_identical_result(
            self, tmp_path, executed):
        spec, result, wall = executed
        cache = ResultCache(root=tmp_path)
        cache.put(spec, result, wall_seconds=wall)
        corrupt_cache_entries(tmp_path, seed=0, count=1)

        warm = ResultCache(root=tmp_path)
        outcome = run_specs([spec], jobs=1, cache=warm)
        assert outcome.executed == 1 and outcome.cache_hits == 0
        assert outcome.failure_counts == {"cache_corrupt": 1}
        assert outcome.results[0].to_json() == result.to_json()
        # the re-executed result was re-stored and now hits cleanly
        again = ResultCache(root=tmp_path)
        assert again.get(spec) is not None

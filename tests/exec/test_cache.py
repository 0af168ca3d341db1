"""ResultCache: content addressing, invalidation accounting, atomicity."""

import json

from repro.exec import CachedEntry, ResultCache, ScenarioResult, ScenarioSpec


def spec(**kw):
    kw.setdefault("kernel", "jacobi")
    kw.setdefault("params", {"n": 48, "iterations": 3})
    return ScenarioSpec(**kw)


def result(**kw):
    kw.setdefault("app_name", "jacobi")
    kw.setdefault("nprocs", 4)
    kw.setdefault("adaptive", False)
    kw.setdefault("runtime_seconds", 1.25)
    kw.setdefault("events", 100)
    kw.setdefault("forks", 3)
    kw.setdefault("adaptations", 0)
    return ScenarioResult(**kw)


class TestHitMiss:
    def test_cold_lookup_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get(spec()) is None
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0

    def test_put_then_get_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(spec(), result(), wall_seconds=2.5)
        hit = cache.get(spec())
        assert isinstance(hit, CachedEntry)
        assert hit.result == result()
        assert hit.wall_seconds == 2.5
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_entry_path_is_the_digest(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec(), result())
        assert path.name == f"{spec().config_digest()}.json"
        assert path.parent == tmp_path

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(spec(), result())
        assert cache.get(spec(nprocs=8)) is None

    def test_label_change_still_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(spec(label="a"), result())
        assert cache.get(spec(label="b")) is not None


class TestInvalidation:
    def test_version_salt_mismatch_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, salt="0.9.0")
        old.put(spec(), result())
        new = ResultCache(root=tmp_path, salt="1.0.0")
        assert new.get(spec()) is None
        assert new.stats.invalidations == 1
        assert new.stats.misses == 1

    def test_default_salt_is_a_content_hash_of_the_package_sources(
            self, tmp_path):
        import shutil
        from pathlib import Path

        import repro
        from repro.exec.cache import code_version_salt, source_salt

        package = Path(repro.__file__).parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert ResultCache(root=tmp_path / "c").salt == code_version_salt()
        assert code_version_salt() == source_salt(package) == source_salt(copy)
        assert code_version_salt().startswith(repro.__version__ + "+")
        # a one-byte model edit is a different salt ...
        with open(copy / "dsm" / "diffs.py", "a") as fh:
            fh.write("#\n")
        assert source_salt(copy) != source_salt(package)
        # ... so is an edit to the execution tier, which decides the
        # runtime, options and events a spec runs with,
        edited = source_salt(copy)
        with open(copy / "exec" / "pool.py", "a") as fh:
            fh.write("#\n")
        assert source_salt(copy) != edited
        # ... a compiled file is not,
        edited = source_salt(copy)
        (copy / "exec" / "stale.pyc").write_bytes(b"\0")
        assert source_salt(copy) == edited
        # ... and an explicit salt still overrides the computed one.
        assert ResultCache(root=tmp_path / "c", salt="pinned").salt == "pinned"

    def test_corrupt_json_invalidates(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec(), result())
        path.write_text("{not json")
        assert cache.get(spec()) is None
        assert cache.stats.invalidations == 1

    def test_digest_mismatch_invalidates(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec(), result())
        entry = json.loads(path.read_text())
        entry["digest"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert cache.get(spec()) is None
        assert cache.stats.invalidations == 1

    def test_schema_mismatch_invalidates(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec(), result())
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-exec-cache/0"
        path.write_text(json.dumps(entry))
        assert cache.get(spec()) is None
        assert cache.stats.invalidations == 1


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for k in range(3):
            cache.put(spec(seed=k), result())
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_overwrite_is_last_writer_wins(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(spec(), result(), wall_seconds=9.0)
        cache.put(spec(), result(), wall_seconds=1.0)
        assert cache.get(spec()).wall_seconds == 1.0

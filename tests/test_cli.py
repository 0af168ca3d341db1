"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_event, build_parser, main


class TestParsing:
    def test_event_parse_full(self):
        assert _parse_event("leave:1.5:3") == ("leave", 1.5, 3)

    def test_event_parse_default_node(self):
        assert _parse_event("join:0.25") == ("join", 0.25, None)

    def test_event_parse_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_event("explode:1.0")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_event("leave")

    def test_event_parse_accepts_crash(self):
        assert _parse_event("crash:1.0:2") == ("crash", 1.0, 2)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("jacobi", "gauss", "fft3d", "nbf"):
            assert name in out
        for preset in ("paper", "bench", "tiny"):
            assert preset in out

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "ns/op" in out and "1,404.20" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "0.500" in out and "0.286" in out

    def test_migration(self, capsys):
        assert main(["migration"]) == 0
        out = capsys.readouterr().out
        assert "8.1" in out or "image" in out

    def test_micro(self, capsys):
        assert main(["micro"]) == 0
        assert "round trip" in capsys.readouterr().out

    def test_micro_prints_what_it_measured(self, monkeypatch, capsys):
        from repro.bench import micro

        monkeypatch.setattr(micro, "measure_rtt", lambda: 4321e-6)
        assert main(["micro"]) == 0
        assert "4,321.00" in capsys.readouterr().out

    def test_run_materialized_with_events(self, capsys):
        rc = main([
            "run", "jacobi", "--preset", "tiny", "--nprocs", "3",
            "--materialized", "--event", "leave:0.01:2", "--grace", "60",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification vs sequential reference: OK" in out
        assert "adapt events" in out

    def test_run_traced_default(self, capsys):
        rc = main(["run", "nbf", "--preset", "tiny", "--nprocs", "2"])
        assert rc == 0
        assert "simulated runtime" in capsys.readouterr().out

    def test_run_unknown_app(self, capsys):
        assert main(["run", "linpack"]) == 2


class TestSweep:
    def _sweep(self, tmp_path, *extra):
        return main([
            "sweep", "--apps", "jacobi", "--nodes", "2,4", "--preset", "tiny",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"), *extra,
        ])

    def test_sweep_runs_grid_and_caches(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        cold = capsys.readouterr()
        assert "jacobi" in cold.out
        assert "2 executed" in cold.err

        assert self._sweep(tmp_path) == 0
        warm = capsys.readouterr()
        assert "2 from cache, 0 executed" in warm.err
        # the simulated columns are identical cold vs warm; only the
        # "via" column differs (wall seconds vs "cache")
        strip_via = lambda text: [line.rsplit(None, 1)[0]
                                  for line in text.splitlines() if line]
        assert strip_via(cold.out) == strip_via(warm.out)

    def test_sweep_no_cache_always_executes(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert self._sweep(tmp_path, "--no-cache") == 0
        assert "0 from cache, 2 executed" in capsys.readouterr().err

    def test_sweep_refresh_re_executes(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert self._sweep(tmp_path, "--refresh") == 0
        assert "0 from cache, 2 executed" in capsys.readouterr().err

    def test_sweep_json_payload(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sweep.json"
        assert self._sweep(tmp_path, "--json", str(out_path)) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-sweep/1"
        assert len(payload["scenarios"]) == 2
        for scenario in payload["scenarios"]:
            assert len(scenario["digest"]) == 64
            assert scenario["result"]["runtime_seconds"] > 0

    def test_run_and_sweep_describe_one_cell_by_one_spec(self):
        """``repro run`` and a ``repro sweep`` cell of the same kernel,
        preset and team size are one simulation: one config digest."""
        from repro.cli import _grid_specs, _spec_from_args

        parser = build_parser()
        ran = _spec_from_args(parser.parse_args(
            ["run", "jacobi", "--preset", "tiny", "--nprocs", "4",
             "--extra-nodes", "0"]))
        grid, specs = _grid_specs(parser.parse_args(["sweep", "--preset", "tiny"]))
        swept = specs[grid.index(("jacobi", 4))]
        assert ran.config_digest() == swept.config_digest()

    def test_sweep_rejects_unknown_app(self, tmp_path):
        assert main(["sweep", "--apps", "linpack",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_sweep_rejects_bad_nodes(self, tmp_path):
        assert main(["sweep", "--apps", "jacobi", "--nodes", "four",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_table1_accepts_engine_flags(self, tmp_path, capsys):
        rc = main(["table1", "--jobs", "1", "--no-cache"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_sweep_timeline(self, tmp_path, capsys):
        import json

        timeline = tmp_path / "pool.json"
        assert self._sweep(tmp_path, "--timeline", str(timeline)) == 0
        assert "pool timeline written" in capsys.readouterr().err
        payload = json.loads(timeline.read_text())
        assert payload["otherData"]["schema"] == "repro-trace/1"
        assert len([e for e in payload["traceEvents"] if e["ph"] == "X"]) == 2


class TestReport:
    def _report(self, *extra):
        return main([
            "report", "jacobi", "--preset", "tiny", "--nprocs", "8",
            "--event", "leave:0.03:3", *extra,
        ])

    def test_breakdown_table_and_consistency(self, capsys):
        assert self._report() == 0
        out = capsys.readouterr().out
        assert "Adaptation cost breakdown" in out
        for phase in ("gc", "migration", "exclusive fetch", "repartition",
                      "barrier"):
            assert phase in out
        assert "total (= harness adapt time)" in out
        assert "phase sum matches the harness adaptation time" in out

    def test_exports_validate(self, tmp_path, capsys):
        from repro.obs.schema import validate_metrics_file, validate_trace_file

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert self._report("--trace", str(trace),
                            "--metrics", str(metrics)) == 0
        capsys.readouterr()
        validate_trace_file(str(trace))
        validate_metrics_file(str(metrics))

    def test_requires_app_or_digest(self, capsys):
        assert main(["report", "--preset", "tiny"]) == 2

    def test_digest_mode_from_sweep_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--apps", "jacobi", "--nodes", "4", "--preset", "tiny",
            "--jobs", "1", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        digest = next(cache_dir.glob("*.json")).stem
        rc = main(["report", "--digest", digest[:12],
                   "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "runtime" in out

    def test_digest_mode_reads_the_default_sweep_cache(self, tmp_path,
                                                        monkeypatch, capsys):
        from repro.config import EXEC_CACHE_DIR

        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--apps", "jacobi", "--nodes", "4",
                     "--preset", "tiny", "--jobs", "1"]) == 0
        capsys.readouterr()
        digest = next((tmp_path / EXEC_CACHE_DIR).glob("*.json")).stem
        assert main(["report", "--digest", digest[:12]]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out and "cost (ms)" in out

    def test_digest_mode_refuses_an_entry_other_code_wrote(self, tmp_path,
                                                           capsys):
        """``--digest`` reads through the cache's schema, salt and
        checksum checks: an entry written under another code version is
        refused, not rendered."""
        from repro.api import run, spec_from_preset
        from repro.exec.cache import ResultCache

        spec = spec_from_preset("tiny", "jacobi", 2)
        ResultCache(tmp_path, salt="other").put(spec, run(spec).result)
        rc = main(["report", "--digest", spec.config_digest()[:12],
                   "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "stale or damaged" in captured.err
        assert "moved to" not in captured.err  # stale, not damaged: kept
        assert "Cached adaptation costs" not in captured.out

    def test_digest_mode_refuses_a_damaged_entry(self, tmp_path, capsys):
        import json

        from repro.api import run, spec_from_preset
        from repro.exec.cache import ResultCache

        spec = spec_from_preset("tiny", "jacobi", 2)
        path = ResultCache(tmp_path).put(spec, run(spec).result)
        entry = json.loads(path.read_text())
        entry["result"]["runtime_seconds"] += 1.0
        path.write_text(json.dumps(entry))
        assert main(["report", "--digest", spec.config_digest()[:12],
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "stale or damaged" in err
        # The damaged bytes are moved aside, and the message says so.
        assert "moved to" in err
        assert not path.exists()
        assert len(list((tmp_path / "quarantine").iterdir())) == 1

    def test_digest_mode_unknown_digest(self, tmp_path, capsys):
        assert main(["report", "--digest", "feedfacefeed",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_digest_mode_unknown_digest_default_cache(self, tmp_path,
                                                      monkeypatch, capsys):
        """Without ``--cache-dir`` the lookup runs in the sweep's default
        cache directory and reports a miss instead of crashing."""
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--digest", "feedfacefeed"]) == 2
        assert "no cache entry" in capsys.readouterr().err


class TestScale:
    def test_scale_writes_report_and_report_renders_it(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        assert main(["scale", "--quick", "--nodes", "8",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--scale", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "master uplink busy time" in rendered
        assert "fattree" in rendered

    def test_report_scale_rejects_wrong_schema(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something-else"}')
        assert main(["report", "--scale", str(bogus)]) == 2

    def test_scale_rejects_bad_nodes(self, capsys):
        assert main(["scale", "--nodes", "eight"]) == 2


class TestSharedEngineFlags:
    """Every engine-driven command accepts the same five execution flags
    (the shared argparse parent behind --jobs/--cache-dir/--no-cache/
    --refresh/--coordinator, docs/PROTOCOL.md §12); the service commands
    take only the ones they read."""

    COMMANDS = ["sweep", "table1", "recovery", "submit"]

    def test_engine_flags_parse_everywhere(self):
        parser = build_parser()
        for command in self.COMMANDS:
            args = parser.parse_args(
                [command, "--jobs", "3", "--no-cache", "--refresh",
                 "--cache-dir", "/tmp/c", "--coordinator", "host:7070"])
            assert args.jobs == 3 and args.no_cache and args.refresh
            assert args.cache_dir == "/tmp/c"
            assert args.coordinator == "host:7070"

    def test_coordinator_defaults_to_the_service_port_only_for_its_clients(self):
        # sweep/table1/recovery run here unless told otherwise; submit and
        # workers always talk to a service (separate parents, so the
        # default cannot leak from one command to another).
        parser = build_parser()
        for command in ("sweep", "table1", "recovery", "serve"):
            assert parser.parse_args([command]).coordinator is None
        for command in ("submit", "workers"):
            assert (parser.parse_args([command]).coordinator
                    == "127.0.0.1:7070")
        assert parser.parse_args(["submit"]).fn is parser.parse_args(["sweep"]).fn

    def test_jobs_defaults_are_preserved(self):
        # argparse parents share action objects, so a per-subparser
        # set_defaults(jobs=...) would leak into every other command.
        # All commands therefore parse --jobs as None; the serial-by-
        # default benches (table1/recovery) resolve None -> 1
        # inside their command functions instead.
        parser = build_parser()
        for command in ("sweep", "table1", "recovery"):
            assert parser.parse_args([command]).jobs is None

    def test_serve_takes_only_the_flags_it_reads(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--no-cache", "--cache-dir", "/tmp/c",
                                  "--coordinator", "host:7070"])
        assert args.no_cache and args.cache_dir == "/tmp/c"
        for flag in (["--jobs", "2"], ["--refresh"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", *flag])

    def test_workers_take_only_the_coordinator(self):
        # A worker runs one simulation at a time (--count starts more) and
        # keeps no cache.
        parser = build_parser()
        for flag in (["--jobs", "2"], ["--no-cache"], ["--refresh"],
                     ["--cache-dir", "/tmp/c"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["workers", *flag])

    def test_remote_without_coordinator_fails_cleanly(self, capsys):
        # --coordinator with nothing listening there
        rc = main(["sweep", "--apps", "jacobi", "--nodes", "1",
                   "--preset", "tiny", "--coordinator", "127.0.0.1:1"])
        assert rc != 0
        assert "127.0.0.1:1" in capsys.readouterr().err

    def test_sweep_jobs_1_runs_serially_in_process(self, tmp_path, capsys):
        rc = main(["sweep", "--apps", "jacobi", "--nodes", "1",
                   "--preset", "tiny", "--jobs", "1", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr()
        assert rc == 0
        assert "jacobi" in out.out
        assert "1 executed (0 retried) on 1 job(s)" in out.err

    def test_cache_merge_command_is_gone(self):
        """Nothing produces a cache to merge since workers keep none."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "merge", "src", "dst"])


def test_run_replays_a_join_leave_plan(tmp_path, capsys):
    """An availability trace is a plan file: ``--faults`` replays it."""
    plan = tmp_path / "day.txt"
    plan.write_text("# owner arrives, then leaves again\n0.5 leave 2 60\n1.0 join 2\n")
    rc = main(["run", "jacobi", "--preset", "bench", "--nprocs", "3",
               "--faults", str(plan)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "joins=[] leaves=[2] urgent=[] team 3->2" in out
    assert "joins=[2] leaves=[] urgent=[] team 2->3" in out

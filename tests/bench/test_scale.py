"""The scaling sweep: report shape, determinism, and the tree's win."""

import json

from repro.bench.scale import (
    SCALE_SCHEMA,
    format_scale_table,
    run_scale,
    run_scale_point,
    write_scale_report,
)


class TestScalePoint:
    def test_entry_shape(self):
        e = run_scale_point(8, "flat", "star", quick=True)
        for key in (
            "sim_seconds", "events_per_sec", "fork_join_mean_s",
            "max_link_busy_s", "master_uplink_busy_s", "max_link_bytes",
            "digest",
        ):
            assert key in e
        assert e["nodes"] == 8 and e["sync"] == "flat"
        assert e["sim_seconds"] > 0 and e["fork_join_mean_s"] > 0
        assert e["max_link_busy_s"] >= e["master_uplink_busy_s"] > 0

    def test_modelled_outputs_deterministic(self):
        a = run_scale_point(8, "tree", "star", quick=True)
        b = run_scale_point(8, "tree", "star", quick=True)
        assert a["digest"] == b["digest"]
        assert a["sim_seconds"] == b["sim_seconds"]
        assert a["max_link_busy_s"] == b["max_link_busy_s"]

    def test_flat_and_tree_model_differently(self):
        flat = run_scale_point(8, "flat", "star", quick=True)
        tree = run_scale_point(8, "tree", "star", quick=True)
        assert flat["digest"] != tree["digest"]

    def test_fattree_charges_trunk_hops(self):
        """With a radix splitting the team, cross-leaf latency appears."""
        star = run_scale_point(8, "flat", "star", quick=True)
        fat = run_scale_point(8, "flat", "fattree", quick=True)
        # 8 nodes fit one radix-8 leaf, so intra-leaf traffic matches the
        # star model exactly.
        assert fat["sim_seconds"] == star["sim_seconds"]


class TestScaleReport:
    def test_report_and_table(self, tmp_path):
        report = run_scale(nodes=[8], quick=True)
        assert report["schema"] == SCALE_SCHEMA
        assert len(report["scale"]) == 4  # 2 syncs x 2 topologies
        table = format_scale_table(report)
        assert "flat" in table and "tree" in table and "fattree" in table
        assert "reduction" in table
        path = tmp_path / "scale.json"
        write_scale_report(report, str(path))
        assert json.loads(path.read_text())["schema"] == SCALE_SCHEMA

    def test_committed_curve_shows_tree_win(self):
        """The headline claim, measured live rather than read from a
        committed report: tree sync cuts master-uplink busy time by more
        than half at 64 and 128 nodes."""
        for n in (64, 128):
            flat, tree = (
                run_scale_point(n, sync, "star", quick=True)[
                    "master_uplink_busy_s"]
                for sync in ("flat", "tree")
            )
            assert tree < 0.5 * flat, (n, flat, tree)

"""§4.3 — fault tolerance by adaptation-point checkpointing.

The paper gives the design but no measurements; this bench characterizes
the cost model: a checkpoint = GC + master collecting the pages it lacks
+ a libckpt disk write of the whole image.  Assertions pin the structure:
cost grows with the shared-memory size, collection traffic concentrates
on the master's downlink, and slaves never write anything.
"""

import pytest

from repro.apps import Jacobi
from repro.bench import format_table
from repro.bench.harness import run_experiment


def ckpt_run(n, interval=0.15):
    return run_experiment(
        lambda: Jacobi(n, 24),
        nprocs=4,
        adaptive=True,
        runtime_kwargs={"checkpoint_interval": interval},
    )


@pytest.fixture(scope="module")
def runs():
    return {n: ckpt_run(n) for n in (352, 704, 1408)}


def test_checkpoint_report(runs, report):
    rows = []
    for n, res in runs.items():
        mgr = res.runtime.ckpt_mgr
        ck = mgr.checkpoints[0]
        rows.append(
            [n, len(mgr.checkpoints), ck.total_pages, ck.image_bytes,
             ck.write_seconds]
        )
    report(
        "checkpoint",
        format_table(
            ["jacobi n", "checkpoints", "pages", "image bytes", "disk write (s)"],
            rows,
            title="§4.3: adaptation-point checkpointing cost (Jacobi, 4 procs)",
        ),
    )


def test_checkpoints_taken_periodically(runs):
    for n, res in runs.items():
        assert len(res.runtime.ckpt_mgr.checkpoints) >= 1


def test_cost_grows_with_problem_size(runs):
    writes = [res.runtime.ckpt_mgr.checkpoints[0].write_seconds for res in runs.values()]
    assert writes == sorted(writes)
    assert writes[-1] > 2 * writes[0]


def test_master_only_writes(runs):
    """Slaves have no process state at adaptation points, so only the
    master's image is written — the checkpoint holds everything."""
    res = runs[704]
    ck = res.runtime.ckpt_mgr.checkpoints[0]
    assert ck.total_pages == res.runtime.space.total_pages
    assert ck.image_bytes > ck.total_pages * 4096


def test_collection_concentrates_on_master_link(runs):
    """The page collection is an all-to-one into the master."""
    res = runs[1408]
    snap = res.traffic
    assert snap.per_link_bytes["down0"] > snap.per_link_bytes["down1"]

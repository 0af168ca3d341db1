"""Flat-star runs must stay bitwise identical to the seed (PROTOCOL.md §11).

The combining tree and the fat-tree interconnect are ``PerfParams``
options that default off.  These tests pin the default configuration to
SHA-256 digests of the canonical result JSON (``events`` excluded: the
event count is engine bookkeeping, pinned by value in the golden matrix)
of the seed revision's modelled outputs: any drift is a protocol change,
not noise.  Tree and fat-tree
runs are *not* expected to match the seed (different message patterns
and modelled times are the point) — they are pinned by their own rows of
the golden matrix (``tests/golden.py``).
"""

import pytest

from repro.api import run

from ..golden import SCENARIOS, golden_row, result_digest

#: ``result_digest`` of the seed revision's results, default (flat/star)
#: config — the same fields the seed produced, minus ``events``.
SEED_DIGESTS = {
    "fft3d": "aa28109cdd02551f34a526da68ad9c1e7e093cdd0af49a2687127b66c4d7b4ce",
    "gauss": "07436230526ae6fe84967eab4b5ef6b37b598c94371880bc926f5b197abc7c4c",
    "jacobi": "f256034cab65abe89dc2c3fc43fed79191c4b2145dda82eca8fe8f7ffb251dab",
    "nbf": "05138bfa1b8fab68b31e77d4a56ad643f4f2515cbf4ff0e94142dad32d439190",
    "adapt": "2de3168438dfecb39ddae80b2ed02d9a1e901a83ba1e822dce4791fd7ba9fd13",
    "crash": "dd0bb7f6bac91ebf01bd1aa8dfe9d1c3a109731d9edb34303752f00e2f654201",
}

def _digest(spec) -> str:
    return result_digest(run(spec).result)


class TestFlatMatchesSeed:
    """Run independently of the golden machinery: a plain ``run(spec)``."""

    @pytest.mark.parametrize("app", ["fft3d", "gauss", "jacobi", "nbf"])
    def test_kernel(self, app):
        assert _digest(SCENARIOS[app].spec) == SEED_DIGESTS[app]

    @pytest.mark.parametrize("app", ["gauss", "jacobi"])
    def test_kernel_with_explicit_flat_knobs(self, app):
        """Spelling the defaults out changes the digest-relevant spec but
        must not change the simulation."""
        spec = SCENARIOS[app].spec.replaced(
            perf={"barrier_tree": False, "topology": "star"}
        )
        assert _digest(spec) == SEED_DIGESTS[app]

    def test_adaptive(self):
        assert _digest(SCENARIOS["adapt"].spec) == SEED_DIGESTS["adapt"]

    def test_crash_recovery(self):
        assert _digest(SCENARIOS["crash"].spec) == SEED_DIGESTS["crash"]


class TestTreeDeterminism:
    """Tree runs are pinned rows of the golden matrix (radix 2)."""

    @pytest.mark.parametrize("app", ["fft3d", "gauss", "jacobi", "nbf"])
    def test_kernel(self, app):
        golden_row(f"{app}/tree/obs-off")

    def test_kernel_differs_from_flat(self):
        """The tree must actually engage: message routing changes, so the
        modelled outputs change."""
        row = golden_row("gauss/tree/obs-off")
        assert row.digests["result"] != SEED_DIGESTS["gauss"]

    def test_adaptive(self):
        golden_row("adapt/tree/obs-off")

    def test_crash_recovery(self):
        golden_row("crash/tree/obs-off")


class TestFatTreeDeterminism:
    def test_kernel(self):
        golden_row("jacobi/fattree/obs-off")

    def test_tree_on_fattree(self):
        golden_row("jacobi/tree+fattree/obs-off")

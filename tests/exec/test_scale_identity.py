"""Flat-star runs must stay bitwise identical to the seed (PROTOCOL.md §11).

The combining tree and the fat-tree interconnect are ``PerfParams``
options that default off.  These tests pin the default configuration to
SHA-256 digests of the canonical result JSON captured on the seed
revision: any drift is a protocol change, not noise.  Tree and fat-tree
runs are *not* expected to match the seed (different message patterns
and modelled times are the point) — they are pinned by their own rows of
the golden matrix (``tests/golden.py``).
"""

import hashlib

import pytest

from repro.api import run

from ..golden import SCENARIOS, golden_row

#: sha256(result.to_json()) on the seed revision, default (flat/star) config.
SEED_DIGESTS = {
    "fft3d": "282bd34744a95163f480e82cc9623e40605d790b996d708ca2074b92019a5823",
    "gauss": "b47f515d34cb4ecfa98158922d9b3c63584bfac3e2ca5867e10bbcff40576c4b",
    "jacobi": "5735fbd986c7f917b9c53b7dfbf02a68d76bd827498254169a696d8c2ae2ff40",
    "nbf": "5bfb5b31560ec486fbf9d14122d4ca8067af509aa002f15a8b8cdf655e0df9d9",
    "adapt": "0cf8882f965abba2470e1ea512203357e50e4c6130c8eefb80a8d6f4c9b6b932",
    "crash": "00fce6afae5a873a6c2410dea5f8d7dd376a5511b67bbc098d84c2880c1c44c2",
}

def _digest(spec) -> str:
    return hashlib.sha256(run(spec).result.to_json().encode()).hexdigest()


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

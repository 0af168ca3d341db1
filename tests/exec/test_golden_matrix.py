"""The golden matrix (``tests/golden.py``): scenario × model × observability.

One parametrised test is the whole bitwise oracle; the rest checks
relations *between* pinned rows that must hold by construction — they
read only the data file, so they cost nothing and fail at regeneration
time if a change breaks them.
"""

import pytest

from ..golden import MODELS, ROWS, SCENARIOS, golden_row, pinned
from .test_scale_identity import SEED_DIGESTS


@pytest.mark.parametrize("row_id", ROWS)
def test_row_matches_golden(row_id):
    golden_row(row_id)


class TestPinnedData:
    def test_every_pinned_row_is_checked(self):
        assert sorted(pinned()) == sorted(ROWS)

    @pytest.mark.parametrize("name", sorted(SEED_DIGESTS))
    def test_seed_rows_equal_the_seed_digests(self, name):
        assert pinned()[f"{name}/flat/obs-off"]["result"] == SEED_DIGESTS[name]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_observability_never_changes_the_outputs(self, scenario):
        """Obs-on rows pin the obs-off rows' digests.  Obs-on rows also
        ingest write notices on arrival (per-process observation records
        each demotion when it happens) while obs-off rows defer them to
        the next page-table read, so this is also the eager-vs-deferred
        ingestion oracle on every scenario and model."""
        for model in MODELS:
            plain = pinned()[f"{scenario}/{model}/obs-off"]
            observed = pinned()[f"{scenario}/{model}/obs-on"]
            assert {k: observed[k] for k in plain} == plain

    @pytest.mark.parametrize("family", [
        ("fft3d-mat",), ("gauss-mat",), ("nbf-mat",),
        ("jacobi-mat", "jacobi-mat+loss", "adapt-mat", "crash-mat",
         "crash-warm-mat", "urgent-mat"),
        ("barrier", "barrier-gc"), ("locks", "locks-gc"),
    ], ids=lambda family: family[0])
    def test_memory_never_depends_on_model_faults_or_gc(self, family):
        """One program, one final memory image — whatever the topology,
        fold, fetch batching, adaptation, urgent leave, crash recovery,
        lossy wire or GC schedule."""
        images = {
            pinned()[f"{scenario}/{model}/{obs}"]["memory"]
            for scenario in family for model in MODELS
            for obs in ("obs-off", "obs-on")
        }
        assert len(images) == 1

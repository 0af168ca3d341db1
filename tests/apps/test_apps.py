"""Tests for the evaluation kernels: correctness through the DSM at
several team sizes, correctness across adaptations, and the protocol
signatures Table 1 documents (diffs only for Jacobi at aligned sizes)."""

import numpy as np
import pytest

from repro.apps import (
    BENCH, FFT3D, KERNELS, NBF, PAPER, TINY, Gauss, Jacobi, auto_protocol,
)
from repro.bench.paper_data import SHARED_MB
from repro.dsm import Protocol

from ..helpers import build_adaptive, build_system

ALL_TINY = sorted(TINY)


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL_TINY)
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_kernels_match_sequential_reference(self, name, nprocs):
        sim, rt, pool = build_system(nprocs=nprocs)
        app = KERNELS[name](**TINY[name])
        res = rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9), f"{name} diverged on {nprocs} procs"
        assert res.forks > 0

    @pytest.mark.parametrize("name", ALL_TINY)
    def test_kernels_survive_leave_and_join(self, name):
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=0)
        app = KERNELS[name](**TINY[name])
        prog = app.program(rt)
        # drop a node early, re-admit it mid-run
        sim.schedule(0.001, lambda: rt.submit_leave(2, grace=30.0))
        sim.schedule(0.02, lambda: rt.submit_join(2))
        res = rt.run(prog)
        assert res.adaptations >= 1
        assert app.verify(rtol=1e-7, atol=1e-9), f"{name} diverged across adaptation"

    def test_jacobi_deterministic_across_team_sizes(self):
        finals = []
        for nprocs in (1, 3):
            sim, rt, pool = build_system(nprocs=nprocs)
            app = Jacobi(**TINY["jacobi"])
            rt.run(app.program(rt))
            finals.append(app.final["grid"])
        np.testing.assert_array_equal(finals[0], finals[1])


class TestProtocolSignatures:
    """Table 1: zero diffs for Gauss/FFT/NBF, diffs for Jacobi."""

    def test_gauss_aligned_rows_no_diffs(self):
        sim, rt, pool = build_system(nprocs=4)
        app = Gauss(n=64, iterations=20)  # 512 B rows... still sub-page
        # use a size whose rows are page aligned: 512 doubles = 4096 B
        sim, rt, pool = build_system(nprocs=4)
        app = Gauss(n=512, iterations=24)
        rt.run(app.program(rt))
        assert rt.switch.stats.snapshot().diffs == 0

    def test_fft_aligned_planes_no_diffs(self):
        sim, rt, pool = build_system(nprocs=4)
        # both a-planes (ny*nz*16) and b-planes (ny*nx*16) = 4096 B
        app = FFT3D(nx=16, ny=16, nz=16, iterations=2)
        rt.run(app.program(rt))
        assert rt.switch.stats.snapshot().diffs == 0
        assert app.verify(rtol=1e-7, atol=1e-9)

    def test_nbf_aligned_blocks_no_diffs(self):
        sim, rt, pool = build_system(nprocs=4)
        app = NBF(natoms=4096, npartners=4, iterations=3)  # blocks 8192 B
        rt.run(app.program(rt))
        assert rt.switch.stats.snapshot().diffs == 0

    def test_jacobi_unaligned_rows_produce_diffs(self):
        sim, rt, pool = build_system(nprocs=4)
        app = Jacobi(n=100, iterations=4)  # 800 B rows: unaligned
        rt.run(app.program(rt))
        assert rt.switch.stats.snapshot().diffs > 0

    def test_auto_protocol(self):
        assert auto_protocol(4096) is Protocol.SINGLE_WRITER
        assert auto_protocol(8192) is Protocol.SINGLE_WRITER
        assert auto_protocol(20000) is Protocol.MULTIPLE_WRITER


class TestJacobi:
    def test_boundary_rows_never_written(self):
        app = Jacobi(n=16, iterations=3)
        ref = app.reference()["grid"]
        init = app.initial_grid()
        np.testing.assert_array_equal(ref[0], init[0])
        np.testing.assert_array_equal(ref[-1], init[-1])
        np.testing.assert_array_equal(ref[:, 0], init[:, 0])

    def test_relaxation_converges_toward_smooth(self):
        app = Jacobi(n=16, iterations=200)
        ref = app.reference()["grid"]
        # after many iterations the interior varies smoothly
        assert np.abs(np.diff(ref[8])).max() < 0.2

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            Jacobi(n=2)


class TestGauss:
    def test_reference_is_lu_decomposition(self):
        app = Gauss(n=24)
        m0 = app.initial_matrix()
        m = app.reference()["m"]
        lower = np.tril(m, -1) + np.eye(24)
        upper = np.triu(m)
        np.testing.assert_allclose(lower @ upper, m0, rtol=1e-9, atol=1e-9)

    def test_partial_iterations(self):
        app = Gauss(n=16, iterations=4)
        assert app.reference()["m"].shape == (16, 16)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            Gauss(n=8, iterations=100)


class TestFFT3D:
    def test_single_iteration_is_fftn(self):
        app = FFT3D(nx=8, ny=4, nz=4, iterations=1)
        a0 = app.initial_a() * FFT3D.EVOLVE
        expected = np.fft.fftn(a0, norm="ortho")
        got = app.reference()["b"]
        # b[z, y, x] == fftn(a)[x, y, z]
        np.testing.assert_allclose(
            got, np.transpose(expected, (2, 1, 0)), rtol=1e-9, atol=1e-12
        )

    def test_values_stay_bounded(self):
        app = FFT3D(nx=4, ny=4, nz=4, iterations=50)
        b = app.reference()["b"]
        assert np.isfinite(b).all()
        assert np.abs(b).max() < 10.0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            FFT3D(nx=12, ny=4, nz=4)


class TestNBF:
    def test_partner_table_properties(self):
        app = NBF(natoms=512, npartners=8)
        table = app.partner_table()
        assert table.shape == (512, 8)
        assert table.min() >= 0 and table.max() < 512
        # no self-interaction
        base = np.arange(512)[:, None]
        assert not (table == base).any()

    def test_partner_table_is_local(self):
        app = NBF(natoms=10000, npartners=8, cutoff_locality=0.01)
        table = app.partner_table()
        base = np.arange(10000)[:, None]
        dist = np.abs(((table - base) + 5000) % 10000 - 5000)
        assert dist.max() <= 101

    def test_partner_table_cached_and_deterministic(self):
        a1 = NBF(natoms=128, npartners=4, seed=5)
        a2 = NBF(natoms=128, npartners=4, seed=5)
        np.testing.assert_array_equal(a1.partner_table(), a2.partner_table())
        assert a1.partner_table() is a1.partner_table()

    def test_gather_reads_computed_once_per_block(self):
        """The partner table is immutable, so a block's irregular read set
        is sorted out once, not every iteration; a leave + join only adds
        the blocks of the new partitions."""
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=0)
        app = NBF(natoms=512, npartners=4, iterations=6)
        sim.schedule(0.001, lambda: rt.submit_leave(2, grace=30.0))
        sim.schedule(0.02, lambda: rt.submit_join(2))
        res = rt.run(app.program(rt))
        assert res.adaptations >= 1 and app.verify(rtol=1e-7, atol=1e-9)
        pos, table = app.arrays["pos"], app.partner_table()
        blocks = {pos.block(pid, n) for n in (3, 4) for pid in range(n)}
        assert set(app._gather_reads) == blocks
        for (lo, hi), reads in app._gather_reads.items():
            assert list(reads) == pos.element_set(np.unique(table[lo:hi]).tolist())

    def test_pair_force_antisymmetric_and_bounded(self):
        x = np.linspace(-3, 3, 101)
        f = NBF.pair_force(x, np.zeros_like(x))
        np.testing.assert_allclose(f, -f[::-1], atol=1e-12)
        assert np.abs(f).max() <= 0.51


class TestWorkloads:
    def test_paper_presets_match_published_sizes(self):
        assert PAPER == {
            "gauss": {"n": 3072, "iterations": 3071},
            "jacobi": {"n": 2500, "iterations": 1000},
            "fft3d": {"nx": 128, "ny": 64, "nz": 64, "iterations": 100},
            "nbf": {"natoms": 131072, "npartners": 80, "iterations": 100},
        }

    def test_every_preset_names_each_kernel_param(self):
        for preset in (PAPER, BENCH, TINY):
            for name, params in preset.items():
                assert tuple(params) == KERNELS[name].PARAMS
                assert KERNELS[name](**params).params == params

    def test_paper_shared_memory_same_order_as_published(self):
        """Allocated shared bytes against Table 1's MB column.

        Exact agreement is impossible from the paper alone (it does not
        say which arrays were shared or their precision); the deltas are
        documented in EXPERIMENTS.md.  This guards the order of magnitude.
        """
        for name, params in PAPER.items():
            sim, rt, pool = build_system(nprocs=1, materialized=False)
            app = KERNELS[name](**params)
            app.allocate(rt)
            got_mb = app.shared_bytes() / 1e6
            ratio = got_mb / SHARED_MB[name]
            assert 0.3 <= ratio <= 2.5, f"{name}: {got_mb:.1f} MB vs {SHARED_MB[name]}"


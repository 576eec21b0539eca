"""Tests for the distributed SpGEMM algorithms (1D sparsity-aware, baselines)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    ImprovedBlockRow1D,
    NaiveBlockRow1D,
    OuterProduct1D,
    SparseSUMMA2D,
    SparsityAware1D,
    SplitSpGEMM3D,
    available_algorithms,
    make_algorithm,
)
from repro.distribution import block_bounds_from_sizes
from repro.runtime import MemoryLimitExceeded, PERLMUTTER, SimulatedCluster, ZERO_COST
from repro.sparse import as_csc, to_scipy



def _random(m, n, density, seed, symmetric=False):
    mat = sp.random(m, n, density=density, random_state=seed, format="csc")
    if symmetric:
        mat = mat + mat.T
    return as_csc(mat)


ALL_SQUARE_ALGOS = [
    ("1d", 4),
    ("2d", 4),
    ("1d-outer-product", 4),
    ("1d-naive-block-row", 4),
    ("1d-improved-block-row", 4),
    ("2d", 9),
]


# ----------------------------------------------------------------------
# Correctness against scipy for every algorithm
# ----------------------------------------------------------------------
class TestAlgorithmCorrectness:
    @pytest.mark.parametrize("name,nprocs", ALL_SQUARE_ALGOS)
    def test_square_product_matches_scipy(self, name, nprocs):
        A = _random(90, 90, 0.05, seed=1)
        B = _random(90, 90, 0.05, seed=2)
        expected = (to_scipy(A) @ to_scipy(B)).toarray()
        cluster = SimulatedCluster(nprocs)
        result = make_algorithm(name).multiply(A, B, cluster)
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)
        assert result.nprocs == nprocs
        assert result.elapsed_time >= 0

    @pytest.mark.parametrize("layers,nprocs", [(2, 8), (4, 16), (1, 4)])
    def test_3d_split_matches_scipy(self, layers, nprocs):
        A = _random(80, 80, 0.05, seed=3)
        B = _random(80, 80, 0.05, seed=4)
        expected = (to_scipy(A) @ to_scipy(B)).toarray()
        cluster = SimulatedCluster(nprocs)
        result = SplitSpGEMM3D(layers=layers).multiply(A, B, cluster)
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)

    @pytest.mark.parametrize("name", ["1d", "1d-outer-product", "1d-improved-block-row"])
    def test_rectangular_product(self, name):
        A = _random(70, 50, 0.08, seed=5)
        B = _random(50, 40, 0.08, seed=6)
        expected = (to_scipy(A) @ to_scipy(B)).toarray()
        cluster = SimulatedCluster(4)
        result = make_algorithm(name).multiply(A, B, cluster)
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)

    def test_1d_tall_skinny_operand(self):
        # RtA-like shapes: A is wide, B tall-skinny.
        A = _random(30, 120, 0.06, seed=7)
        B = _random(120, 15, 0.10, seed=8)
        expected = (to_scipy(A) @ to_scipy(B)).toarray()
        result = SparsityAware1D().multiply(A, B, SimulatedCluster(5))
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)

    def test_1d_with_empty_matrix(self):
        from repro.sparse import CSCMatrix

        A = CSCMatrix.empty(20, 20)
        B = _random(20, 20, 0.1, seed=9)
        result = SparsityAware1D().multiply(A, B, SimulatedCluster(3))
        assert result.C.nnz == 0

    def test_dimension_mismatch_raises(self):
        A = _random(10, 12, 0.2, seed=10)
        B = _random(13, 10, 0.2, seed=11)
        for name in ("1d", "2d", "1d-outer-product"):
            with pytest.raises(ValueError):
                make_algorithm(name).multiply(A, B, SimulatedCluster(4))

    def test_2d_requires_square_process_count(self):
        A = _random(20, 20, 0.2, seed=12)
        with pytest.raises(ValueError):
            SparseSUMMA2D().multiply(A, A, SimulatedCluster(6))

    def test_3d_falls_back_to_valid_layer_count(self):
        # P=6 with layers=2 is impossible (6/2 = 3 is not a perfect square);
        # the algorithm falls back to the nearest valid layer count instead of
        # failing, and still produces the right product.
        A = _random(20, 20, 0.2, seed=13)
        result = SplitSpGEMM3D(layers=2).multiply(A, A, SimulatedCluster(6))
        np.testing.assert_allclose(
            result.C.to_dense(), (to_scipy(A) @ to_scipy(A)).toarray(), atol=1e-9
        )
        assert result.info["layers"] in (1.0, 6.0)


# ----------------------------------------------------------------------
# 1D algorithm internals
# ----------------------------------------------------------------------
class TestSparsityAware1D:
    def test_custom_bounds_from_partition_sizes(self):
        A = _random(60, 60, 0.08, seed=20, symmetric=True)
        bounds = block_bounds_from_sizes([10, 25, 15, 10])
        cluster = SimulatedCluster(4)
        result = SparsityAware1D().multiply(
            A, A, cluster, a_bounds=bounds, b_bounds=bounds
        )
        expected = (to_scipy(A) @ to_scipy(A)).toarray()
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)

    def test_block_split_bounds_messages(self):
        A = _random(200, 200, 0.03, seed=21, symmetric=True)
        results = {}
        for K in (2, 8, 1000):
            cluster = SimulatedCluster(4)
            res = SparsityAware1D(block_split=K).multiply(A, A, cluster)
            results[K] = res
            # Two windows (row ids + values): at most 2·K·(P−1) gets per rank.
            assert res.rdma_gets <= 2 * K * 3 * 4
        # Smaller K -> fewer messages but at least as much volume.
        assert results[2].rdma_gets <= results[8].rdma_gets <= results[1000].rdma_gets
        assert results[2].communication_volume >= results[1000].communication_volume

    def test_all_kernels_give_same_product(self):
        A = _random(50, 50, 0.08, seed=22)
        reference = None
        for kernel in ("hybrid", "heap", "hash", "dense"):
            res = SparsityAware1D(kernel=kernel).multiply(A, A, SimulatedCluster(3))
            if reference is None:
                reference = res.C.to_dense()
            else:
                np.testing.assert_allclose(res.C.to_dense(), reference, atol=1e-9)

    def test_no_compaction_still_correct(self):
        A = _random(60, 60, 0.07, seed=23)
        res = SparsityAware1D(compact=False).multiply(A, A, SimulatedCluster(4))
        expected = (to_scipy(A) @ to_scipy(A)).toarray()
        np.testing.assert_allclose(res.C.to_dense(), expected, atol=1e-9)

    def test_info_fields_present(self):
        A = _random(40, 40, 0.1, seed=24)
        res = SparsityAware1D().multiply(A, A, SimulatedCluster(4))
        for key in ("block_split", "rdma_gets", "cv_over_memA", "output_nnz"):
            assert key in res.info

    def test_output_is_communication_free(self):
        """C is already 1D distributed: no bytes move after the multiply phase."""
        A = _random(50, 50, 0.08, seed=25)
        cluster = SimulatedCluster(4)
        SparsityAware1D().multiply(A, A, cluster)
        multiply_phase = cluster.ledger.phases["multiply"]
        assert all(st.bytes_received == 0 for st in multiply_phase)

    def test_single_process_does_no_communication(self):
        A = _random(40, 40, 0.1, seed=26)
        cluster = SimulatedCluster(1)
        res = SparsityAware1D().multiply(A, A, cluster)
        assert res.communication_volume == 0
        assert res.rdma_gets == 0

    def test_phases_recorded_in_order(self):
        A = _random(30, 30, 0.1, seed=27)
        cluster = SimulatedCluster(2)
        SparsityAware1D().multiply(A, A, cluster)
        order = cluster.ledger.phase_order
        assert order.index("setup") < order.index("fetch") < order.index("multiply")

    def test_zero_cost_model_gives_zero_time(self):
        A = _random(30, 30, 0.1, seed=28)
        cluster = SimulatedCluster(4, cost_model=ZERO_COST)
        res = SparsityAware1D().multiply(A, A, cluster)
        assert res.elapsed_time == 0.0
        # ... but the volume counters still reflect the data that moved.
        assert res.communication_volume > 0


# ----------------------------------------------------------------------
# Baseline-specific behaviour
# ----------------------------------------------------------------------
class TestBaselines:
    def test_naive_block_row_volume_scales_with_p(self):
        A = _random(80, 80, 0.05, seed=30, symmetric=True)
        vol = {}
        for P in (2, 4, 8):
            cluster = SimulatedCluster(P)
            res = NaiveBlockRow1D().multiply(A, A, cluster)
            vol[P] = res.communication_volume
        # Ring exchange: every process receives (P-1)/P of B -> volume grows with P.
        assert vol[2] < vol[4] < vol[8]

    def test_improved_block_row_never_moves_more_than_naive(self):
        A = _random(100, 100, 0.04, seed=31, symmetric=True)
        naive = NaiveBlockRow1D().multiply(A, A, SimulatedCluster(4))
        improved = ImprovedBlockRow1D().multiply(A, A, SimulatedCluster(4))
        assert improved.communication_volume <= naive.communication_volume

    def test_outer_product_redistributes_b(self):
        A = _random(60, 60, 0.06, seed=32)
        cluster = SimulatedCluster(4)
        OuterProduct1D().multiply(A, A, cluster)
        assert "redistribute" in cluster.ledger.phase_order
        assert "merge" in cluster.ledger.phase_order

    def test_2d_oom_detection(self):
        A = _random(120, 120, 0.2, seed=33, symmetric=True)
        tiny_memory = PERLMUTTER.with_memory_capacity(2_000)
        cluster = SimulatedCluster(4, cost_model=tiny_memory)
        with pytest.raises(MemoryLimitExceeded):
            SparseSUMMA2D().multiply(A, A, cluster)

    def test_3d_best_layer_sweep(self):
        A = _random(60, 60, 0.06, seed=34, symmetric=True)
        result, layers = SplitSpGEMM3D.best_layer_sweep(A, A, nprocs=16)
        expected = (to_scipy(A) @ to_scipy(A)).toarray()
        np.testing.assert_allclose(result.C.to_dense(), expected, atol=1e-9)
        assert layers in (2, 4, 8, 16)

    @pytest.mark.parametrize("nprocs", [4, 16, 1024])
    def test_3d_default_layers_fall_back_to_one_at_powers_of_four(self, nprocs):
        """``layers=2`` is invalid for every P = 4^k (P/2 is no square), so the
        benchmark's ``3d`` configs at P = 4, 16 and 1024 run one layer: 2D
        SUMMA plus a no-op layer merge.  Changing the default changes them."""
        A = _random(64, 64, 0.05, seed=35, symmetric=True)
        result = SplitSpGEMM3D().multiply(A, A, SimulatedCluster(nprocs))
        assert SplitSpGEMM3D().layers == 2
        assert result.info["layers"] == 1.0
        np.testing.assert_allclose(
            result.C.to_dense(), (to_scipy(A) @ to_scipy(A)).toarray(), atol=1e-9
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_make_algorithm_known_names(self):
        for name in ("1d", "2d", "3d", "outer-product", "1d-improved-block-row"):
            algo = make_algorithm(name)
            assert hasattr(algo, "multiply")

    def test_make_algorithm_kwargs_forwarded(self):
        algo = make_algorithm("1d", block_split=128)
        assert algo.block_split == 128
        algo3d = make_algorithm("3d", layers=4)
        assert algo3d.layers == 4

    def test_make_algorithm_case_insensitive(self):
        assert make_algorithm("1D").name == "1d-sparsity-aware"

    def test_make_algorithm_unknown_raises(self):
        with pytest.raises(ValueError):
            make_algorithm("4d-hypercube")

    def test_available_algorithms_nonempty(self):
        names = available_algorithms()
        assert len(names) >= 6

"""Tests for the matrix generators, dataset suite, statistics and I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import estimate_communication
from repro.matrices import (
    DATASETS,
    bandwidth_profile,
    dataset_names,
    load_dataset,
    matrix_stats,
    read_matrix_market,
    spy_histogram,
    write_matrix_market,
)
from repro.matrices.generators import (
    banded,
    block_diagonal_clustered,
    community_graph,
    erdos_renyi,
    kkt_block,
    restriction_like,
    rmat_graph,
    saddle_point,
)


class TestGenerators:
    def test_erdos_renyi_shape_and_degree(self):
        A = erdos_renyi(500, 8, seed=1)
        assert A.shape == (500, 500)
        avg = A.nnz / 500
        assert 4 < avg < 24  # symmetric doubling + duplicate collisions

    def test_erdos_renyi_symmetric_flag(self):
        A = erdos_renyi(100, 6, symmetric=True, seed=2)
        dense = A.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(100, 5, seed=3)
        b = erdos_renyi(100, 5, seed=3)
        assert a.allclose(b)

    def test_banded_entries_within_band(self):
        bw = 7
        A = banded(200, bw, symmetric=True, seed=4)
        maxdist, _ = bandwidth_profile(A)
        assert maxdist <= bw

    def test_banded_has_full_diagonal(self):
        A = banded(50, 3, seed=5)
        assert (np.abs(np.diag(A.to_dense())) > 0).all()

    def test_block_diagonal_clustered_is_clustered(self):
        A = block_diagonal_clustered(300, 10, seed=6)
        stats = matrix_stats(A)
        assert stats.near_diagonal_fraction > 0.5

    def test_block_diagonal_symmetric_option(self):
        A = block_diagonal_clustered(100, 5, symmetric=True, seed=7)
        dense = A.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_kkt_block_symmetric(self):
        A = kkt_block(200, 40, seed=8)
        dense = A.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert A.shape == (240, 240)

    def test_saddle_point_unsymmetric(self):
        A = saddle_point(150, 30, seed=9)
        assert A.shape == (180, 180)
        assert not matrix_stats(A).symmetric

    def test_rmat_power_law_degrees(self):
        A = rmat_graph(9, edge_factor=8, seed=10)
        degrees = A.column_nnz()
        # heavy tail: max degree far above the mean
        assert degrees.max() > 4 * degrees.mean()

    def test_community_graph_shuffle_hides_structure(self):
        hidden = community_graph(300, 6, 12, mixing=0.05, shuffle=True, seed=11)
        exposed = community_graph(300, 6, 12, mixing=0.05, shuffle=False, seed=11)
        est_hidden = estimate_communication(hidden, nprocs=6).cv_over_mema
        est_exposed = estimate_communication(exposed, nprocs=6).cv_over_mema
        assert est_exposed < est_hidden

    def test_restriction_like_one_nnz_per_row(self):
        R = restriction_like(500, 40, seed=12)
        assert R.nnz == 500
        np.testing.assert_array_equal(R.row_nnz(), np.ones(500))

    def test_restriction_like_validation(self):
        with pytest.raises(ValueError):
            restriction_like(10, 20)


class TestSuite:
    def test_dataset_names_cover_table2(self):
        names = dataset_names()
        for expected in ("queen", "stokes", "eukarya", "hv15r", "nlpkkt"):
            assert expected in names

    @pytest.mark.parametrize("name", ["queen", "stokes", "eukarya", "hv15r", "nlpkkt"])
    def test_load_dataset_produces_square_matrix(self, name):
        A = load_dataset(name, scale=0.05)
        assert A.nrows == A.ncols
        assert A.nnz > 0

    def test_load_dataset_scale_controls_size(self):
        small = load_dataset("queen", scale=0.05)
        large = load_dataset("queen", scale=0.2)
        assert large.nrows > small.nrows

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            load_dataset("mycielskian42")

    @pytest.mark.parametrize("name", ["queen", "eukarya", "nlpkkt"])
    def test_symmetry_matches_spec(self, name):
        A = load_dataset(name, scale=0.05)
        assert matrix_stats(A).symmetric == DATASETS[name].symmetric

    @pytest.mark.parametrize("name", ["stokes", "hv15r"])
    def test_unsymmetric_datasets(self, name):
        A = load_dataset(name, scale=0.05)
        assert not matrix_stats(A).symmetric

    def test_clustered_vs_scattered_regimes(self):
        """The defining property of the suite: hv15r/queen-like inputs have an
        exploitable ordering, the eukarya-like input does not."""
        clustered = load_dataset("hv15r", scale=0.1)
        scattered = load_dataset("eukarya", scale=0.1)
        cv_clustered = estimate_communication(clustered, nprocs=8).cv_over_mema
        cv_scattered = estimate_communication(scattered, nprocs=8).cv_over_mema
        assert cv_clustered < 0.4
        assert cv_scattered > 0.6

    def test_spec_metadata_matches_paper(self):
        assert DATASETS["hv15r"].paper_nrows == 2_017_169
        assert DATASETS["eukarya"].paper_best_strategy == "metis"
        assert DATASETS["queen"].paper_best_strategy == "none"


class TestStats:
    def test_matrix_stats_fields(self, small_symmetric):
        stats = matrix_stats(small_symmetric, "test")
        assert stats.nrows == small_symmetric.nrows
        assert stats.nnz == small_symmetric.nnz
        assert stats.symmetric
        row = stats.as_row()
        assert row["matrix"] == "test"
        assert row["symmetric"] == "Yes"

    def test_spy_histogram_total_equals_nnz(self, small_square):
        grid = spy_histogram(small_square, bins=8)
        assert grid.sum() == small_square.nnz
        assert grid.shape == (8, 8)

    def test_spy_histogram_banded_mass_on_diagonal(self):
        A = banded(256, 4, symmetric=True, seed=13)
        grid = spy_histogram(A, bins=16)
        diag_mass = np.trace(grid)
        assert diag_mass > 0.8 * grid.sum()

    def test_bandwidth_profile_of_diagonal_matrix(self):
        from repro.sparse import CSCMatrix

        I = CSCMatrix.identity(10)
        assert bandwidth_profile(I) == (0, 0.0)

    def test_empty_matrix_stats(self):
        from repro.sparse import CSCMatrix

        stats = matrix_stats(CSCMatrix.empty(4, 4))
        assert stats.nnz == 0
        assert stats.max_nnz_per_column == 0


class TestIO:
    def test_matrix_market_roundtrip(self, tmp_path, small_square):
        path = tmp_path / "matrix.mtx"
        write_matrix_market(path, small_square)
        back = read_matrix_market(path)
        np.testing.assert_allclose(back.to_dense(), small_square.to_dense(), atol=1e-12)


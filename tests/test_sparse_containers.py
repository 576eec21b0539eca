"""Unit tests for the CSC container and scipy conversion."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import (
    CSCMatrix,
    as_csc,
    csc_from_scipy,
    to_scipy,
)

from conftest import assert_sparse_equal


# ----------------------------------------------------------------------
# CSCMatrix construction
# ----------------------------------------------------------------------
class TestCSCConstruction:
    def test_empty_matrix_has_no_entries(self):
        m = CSCMatrix.empty(5, 7)
        assert m.shape == (5, 7)
        assert m.nnz == 0
        assert m.nzc() == 0
        assert m.to_dense().shape == (5, 7)
        assert not m.to_dense().any()

    def test_identity(self):
        m = CSCMatrix.identity(4)
        np.testing.assert_allclose(m.to_dense(), np.eye(4))
        assert m.nnz == 4

    def test_from_coo_basic(self):
        m = CSCMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.diag(m.to_dense()), [1.0, 2.0, 3.0])

    def test_from_coo_sums_duplicates(self):
        m = CSCMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 0] == pytest.approx(3.0)

    def test_from_coo_last_wins_without_dedup_keeps_both(self):
        m = CSCMatrix.from_coo(
            2, 2, [0, 0], [0, 0], [1.0, 2.0], sum_duplicates=False
        )
        # Entries are kept separately but dense accumulation still sums them.
        assert m.nnz == 2
        assert m.to_dense()[0, 0] == pytest.approx(3.0)

    def test_from_coo_empty_input(self):
        m = CSCMatrix.from_coo(4, 5, [], [], [])
        assert m.nnz == 0
        assert m.shape == (4, 5)

    def test_from_dense_roundtrip(self, rng):
        dense = rng.random((6, 8))
        dense[dense < 0.6] = 0.0
        m = CSCMatrix.from_dense(dense)
        np.testing.assert_allclose(m.to_dense(), dense)

    def test_rows_sorted_within_columns(self, small_square):
        for j in range(small_square.ncols):
            rows, _ = small_square.column(j)
            assert np.all(np.diff(rows) > 0)

    def test_invalid_row_index_raises(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_coo(2, 2, [5], [0], [1.0])

    def test_invalid_col_index_raises(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_coo(2, 2, [0], [7], [1.0])

    def test_mismatched_triplets_raise(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_coo(2, 2, [0, 1], [0], [1.0])

    def test_bad_indptr_raises(self):
        with pytest.raises(ValueError):
            CSCMatrix(2, 2, indptr=[0, 1], indices=[0], data=[1.0])

    def test_negative_dims_raise(self):
        with pytest.raises(ValueError):
            CSCMatrix(-1, 2, indptr=[0, 0, 0], indices=[], data=[])


# ----------------------------------------------------------------------
# CSCMatrix properties and access
# ----------------------------------------------------------------------
class TestCSCProperties:
    def test_column_nnz_matches_scipy(self, small_square):
        s = to_scipy(small_square)
        np.testing.assert_array_equal(
            small_square.column_nnz(), np.diff(s.indptr)
        )

    def test_row_nnz_matches_scipy(self, small_square):
        s = to_scipy(small_square).tocsr()
        np.testing.assert_array_equal(small_square.row_nnz(), np.diff(s.indptr))

    def test_nonzero_columns(self):
        m = CSCMatrix.from_coo(4, 4, [0, 1], [0, 2], [1.0, 1.0])
        np.testing.assert_array_equal(m.nonzero_columns(), [0, 2])
        assert m.nzc() == 2

    def test_nonzero_rows_mask(self):
        m = CSCMatrix.from_coo(5, 3, [1, 3], [0, 2], [1.0, 1.0])
        mask = m.nonzero_rows_mask()
        np.testing.assert_array_equal(mask, [False, True, False, True, False])

    def test_memory_bytes_positive(self, small_square):
        assert small_square.memory_bytes() > 0

    def test_column_view(self, tiny_dense_pair):
        A, _, _ = tiny_dense_pair
        rows, vals = A.column(0)
        np.testing.assert_array_equal(rows, [0, 3])
        np.testing.assert_allclose(vals, [1.0, 5.0])

    def test_column_out_of_range(self, small_square):
        with pytest.raises(IndexError):
            small_square.column(small_square.ncols)

    def test_to_coo_roundtrip(self, small_square):
        r, c, v = small_square.to_coo()
        rebuilt = CSCMatrix.from_coo(*small_square.shape, r, c, v)
        assert_sparse_equal(rebuilt, small_square)

    def test_copy_is_independent(self, small_square):
        cp = small_square.copy()
        cp.data[:] = 0
        assert small_square.data.any()

    def test_astype_changes_dtype(self, small_square):
        m32 = small_square.astype(np.float32)
        assert m32.dtype == np.float32


# ----------------------------------------------------------------------
# CSCMatrix structural transforms
# ----------------------------------------------------------------------
class TestCSCTransforms:
    def test_extract_columns_order_preserved(self, small_square):
        cols = [5, 2, 9]
        sub = small_square.extract_columns(cols)
        assert sub.ncols == 3
        dense = small_square.to_dense()
        np.testing.assert_allclose(sub.to_dense(), dense[:, cols])

    def test_extract_columns_out_of_range(self, small_square):
        with pytest.raises(IndexError):
            small_square.extract_columns([small_square.ncols])

    def test_extract_column_range(self, small_square):
        sub = small_square.extract_column_range(10, 25)
        np.testing.assert_allclose(
            sub.to_dense(), small_square.to_dense()[:, 10:25]
        )

    def test_extract_column_range_empty(self, small_square):
        sub = small_square.extract_column_range(5, 5)
        assert sub.ncols == 0
        assert sub.nnz == 0

    def test_extract_column_range_invalid(self, small_square):
        with pytest.raises(IndexError):
            small_square.extract_column_range(10, 5)

    def test_transpose(self, small_rect):
        np.testing.assert_allclose(
            small_rect.transpose().to_dense(), small_rect.to_dense().T
        )

    def test_transpose_involution(self, small_rect):
        assert_sparse_equal(small_rect.transpose().transpose(), small_rect)

    def test_permute_rows_and_cols(self, small_square, rng):
        n = small_square.nrows
        rp = rng.permutation(n)
        cp = rng.permutation(n)
        permuted = small_square.permute(row_perm=rp, col_perm=cp)
        dense = small_square.to_dense()
        np.testing.assert_allclose(permuted.to_dense(), dense[np.ix_(rp, cp)])

    def test_permute_wrong_length_raises(self, small_square):
        with pytest.raises(ValueError):
            small_square.permute(row_perm=np.arange(3))

    def test_prune_explicit_zeros(self):
        m = CSCMatrix.from_coo(2, 2, [0, 1, 1], [0, 1, 0], [0.0, 2.0, 1e-15])
        pruned = m.prune_explicit_zeros(tol=1e-12)
        assert pruned.nnz == 1
        assert pruned.to_dense()[1, 1] == pytest.approx(2.0)

    def test_allclose_detects_difference(self, small_square):
        other = small_square.copy()
        other.data[0] += 1.0
        assert not small_square.allclose(other)
        assert small_square.allclose(small_square.copy())

    def test_allclose_shape_mismatch(self, small_square, small_rect):
        assert not small_square.allclose(small_rect)


# ----------------------------------------------------------------------
# scipy conversion
# ----------------------------------------------------------------------
class TestConversion:
    def test_scipy_roundtrip_csc(self, small_square):
        s = to_scipy(small_square)
        back = csc_from_scipy(s)
        assert_sparse_equal(back, small_square)

    def test_csc_from_scipy_accepts_csr(self, small_square):
        csr = to_scipy(small_square).tocsr()
        assert_sparse_equal(csc_from_scipy(csr), small_square)

    def test_csc_from_scipy_accepts_dense(self, rng):
        dense = rng.random((5, 5))
        dense[dense < 0.5] = 0
        assert_sparse_equal(csc_from_scipy(dense), dense)

    def test_as_csc_identity_for_csc(self, small_square):
        assert as_csc(small_square) is small_square

    def test_to_scipy_rejects_other_types(self):
        with pytest.raises(TypeError):
            to_scipy(np.zeros((2, 2)))

    def test_conversion_preserves_dtype(self):
        s = sp.csc_matrix(np.array([[1, 0], [0, 2]], dtype=np.int64))
        m = csc_from_scipy(s)
        assert m.data.dtype == np.int64

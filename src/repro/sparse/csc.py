"""Compressed Sparse Column (CSC) container used as the local-matrix substrate.

The paper stores local submatrices in CombBLAS's DCSC format but explicitly
notes the algorithm "would run on both [CSC and DCSC] with the same
complexity bounds".  This module provides a plain CSC container backed by numpy arrays, which is the workhorse layout for
local SpGEMM kernels, column extraction (the RDMA fetch unit of Algorithm 1),
and conversions to/from :mod:`scipy.sparse`.

Design notes
------------
* Index arrays use ``int64`` throughout — the paper's ParMETIS runs use
  64-bit indices and the synthetic suite can exceed 2^31 products even at
  laptop scale.
* Values use ``float64`` unless the caller supplies another dtype (the
  betweenness-centrality application uses integer path counts).
* Rows within each column are kept **sorted**; every constructor either
  verifies or establishes this invariant, because the heap/hash kernels and
  the merge routines rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

__all__ = ["CSCMatrix"]

_INDEX_DTYPE = np.int64


def _as_index_array(values: Iterable[int]) -> np.ndarray:
    arr = np.asarray(values, dtype=_INDEX_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {arr.shape}")
    return arr


@dataclass
class CSCMatrix:
    """A compressed-sparse-column matrix.

    Attributes
    ----------
    nrows, ncols:
        Logical dimensions of the matrix.
    indptr:
        ``int64`` array of length ``ncols + 1``; column ``j`` occupies the
        half-open slice ``indptr[j]:indptr[j+1]`` of ``indices``/``data``.
    indices:
        ``int64`` row indices, sorted within each column.
    data:
        Numeric values aligned with ``indices``.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    # ------------------------------------------------------------------
    # Construction and validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.nrows = int(self.nrows)
        self.ncols = int(self.ncols)
        self.indptr = _as_index_array(self.indptr)
        self.indices = _as_index_array(self.indices)
        self.data = np.asarray(self.data)
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.indptr.shape[0] != self.ncols + 1:
            raise ValueError(
                f"indptr has length {self.indptr.shape[0]}, expected {self.ncols + 1}"
            )
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data must have the same length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.nrows
        ):
            raise ValueError("row index out of range")

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.float64) -> "CSCMatrix":
        """An all-zero matrix of the given shape."""
        return cls(
            nrows=nrows,
            ncols=ncols,
            indptr=np.zeros(ncols + 1, dtype=_INDEX_DTYPE),
            indices=np.zeros(0, dtype=_INDEX_DTYPE),
            data=np.zeros(0, dtype=dtype),
        )

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSCMatrix":
        """The n×n identity matrix."""
        return cls(
            nrows=n,
            ncols=n,
            indptr=np.arange(n + 1, dtype=_INDEX_DTYPE),
            indices=np.arange(n, dtype=_INDEX_DTYPE),
            data=np.ones(n, dtype=dtype),
        )

    @classmethod
    def from_coo(
        cls,
        nrows: int,
        ncols: int,
        rows: Iterable[int],
        cols: Iterable[int],
        vals: Iterable[float],
        *,
        sum_duplicates: bool = True,
        dtype=None,
    ) -> "CSCMatrix":
        """Build from COO triplets.

        Duplicate ``(row, col)`` entries are summed when ``sum_duplicates``
        is true (the SpGEMM accumulation semantics); otherwise the last value
        wins.  Explicit zeros produced by summation are retained, matching
        CombBLAS semantics where numerical cancellation does not change the
        pattern within one operation.
        """
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = np.asarray(vals, dtype=dtype)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have identical shapes")
        if rows.size == 0:
            return cls.empty(nrows, ncols, dtype=vals.dtype if dtype is None else dtype)
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValueError("column index out of range")

        # Sort lexicographically by (col, row).
        order = np.lexsort((rows, cols))
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]

        if sum_duplicates:
            # Identify runs of identical (col, row) pairs and sum their values.
            new_run = np.empty(rows.shape[0], dtype=bool)
            new_run[0] = True
            new_run[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group_ids = np.cumsum(new_run) - 1
            unique_rows = rows[new_run]
            unique_cols = cols[new_run]
            summed = np.zeros(unique_rows.shape[0], dtype=vals.dtype)
            np.add.at(summed, group_ids, vals)
            rows, cols, vals = unique_rows, unique_cols, summed

        indptr = np.zeros(ncols + 1, dtype=_INDEX_DTYPE)
        counts = np.bincount(cols, minlength=ncols)
        indptr[1:] = np.cumsum(counts)
        return cls(nrows=nrows, ncols=ncols, indptr=indptr, indices=rows, data=vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros included)."""
        return int(self.indices.shape[0])

    @property
    def dtype(self):
        return self.data.dtype

    def column_nnz(self) -> np.ndarray:
        """Per-column stored-entry counts (length ``ncols``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts (length ``nrows``)."""
        return np.bincount(self.indices, minlength=self.nrows).astype(_INDEX_DTYPE)

    def nonzero_columns(self) -> np.ndarray:
        """Indices of columns holding at least one stored entry (the paper's nzc)."""
        return np.nonzero(np.diff(self.indptr) > 0)[0].astype(_INDEX_DTYPE)

    def nzc(self) -> int:
        """Number of non-empty columns."""
        return int(np.count_nonzero(np.diff(self.indptr)))

    def nonzero_rows_mask(self) -> np.ndarray:
        """Dense boolean vector of length ``nrows`` marking rows with entries.

        This is the paper's ``H_i`` vector computed on a local ``B_i`` slice
        (Algorithm 1 line 4).
        """
        mask = np.zeros(self.nrows, dtype=bool)
        mask[self.indices] = True
        return mask

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the index and value arrays."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    # ------------------------------------------------------------------
    # Element access / conversion
    # ------------------------------------------------------------------
    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column ``j``."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column index {j} out of range for {self.shape}")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=self.data.dtype)
        cols = np.repeat(np.arange(self.ncols, dtype=_INDEX_DTYPE), np.diff(self.indptr))
        # np.add.at accumulates duplicate (row, col) entries correctly, which
        # plain fancy-index assignment would not.
        np.add.at(out, (self.indices, cols), self.data)
        return out

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, vals)`` arrays in column-major order."""
        cols = np.repeat(
            np.arange(self.ncols, dtype=_INDEX_DTYPE), np.diff(self.indptr)
        )
        return self.indices.copy(), cols, self.data.copy()

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            nrows=self.nrows,
            ncols=self.ncols,
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            data=self.data.copy(),
        )

    def astype(self, dtype) -> "CSCMatrix":
        return CSCMatrix(
            nrows=self.nrows,
            ncols=self.ncols,
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            data=self.data.astype(dtype),
        )

    # ------------------------------------------------------------------
    # Structural transforms needed by the algorithms
    # ------------------------------------------------------------------
    def extract_columns(self, columns: Iterable[int]) -> "CSCMatrix":
        """Return a new matrix containing only the requested columns.

        The result has ``len(columns)`` columns, in the requested order; row
        dimension is unchanged.  This is the "pack the fetched blocks into a
        compacted Ã" step of Algorithm 1 (line 8).
        """
        columns = _as_index_array(columns)
        if columns.size and (columns.min() < 0 or columns.max() >= self.ncols):
            raise IndexError("column index out of range")
        col_counts = np.diff(self.indptr)[columns]
        new_indptr = np.zeros(columns.size + 1, dtype=_INDEX_DTYPE)
        new_indptr[1:] = np.cumsum(col_counts)
        total = int(new_indptr[-1])
        new_indices = np.empty(total, dtype=_INDEX_DTYPE)
        new_data = np.empty(total, dtype=self.data.dtype)
        pos = 0
        for j in columns:
            lo, hi = self.indptr[j], self.indptr[j + 1]
            width = hi - lo
            new_indices[pos : pos + width] = self.indices[lo:hi]
            new_data[pos : pos + width] = self.data[lo:hi]
            pos += width
        return CSCMatrix(
            nrows=self.nrows,
            ncols=int(columns.size),
            indptr=new_indptr,
            indices=new_indices,
            data=new_data,
        )

    def extract_column_range(self, start: int, stop: int) -> "CSCMatrix":
        """Return columns ``start:stop`` as a new matrix (contiguous slice).

        Contiguous column ranges are the unit transferred by the block-fetch
        strategy (Algorithm 2), so this path avoids per-column copying.
        """
        if not (0 <= start <= stop <= self.ncols):
            raise IndexError(f"invalid column range [{start}, {stop}) for {self.shape}")
        lo = self.indptr[start]
        hi = self.indptr[stop]
        return CSCMatrix(
            nrows=self.nrows,
            ncols=stop - start,
            indptr=(self.indptr[start : stop + 1] - lo).astype(_INDEX_DTYPE),
            indices=self.indices[lo:hi].copy(),
            data=self.data[lo:hi].copy(),
        )

    def transpose(self) -> "CSCMatrix":
        """Return the transpose as a new CSC matrix (CSC(Aᵀ) == CSR(A))."""
        rows, cols, vals = self.to_coo()
        return CSCMatrix.from_coo(
            self.ncols, self.nrows, cols, rows, vals, sum_duplicates=False
        )

    def permute(self, row_perm: np.ndarray | None = None,
                col_perm: np.ndarray | None = None) -> "CSCMatrix":
        """Apply permutations: result[i, j] = self[row_perm[i], col_perm[j]].

        ``row_perm`` and ``col_perm`` give, for each *new* index, the old
        index it takes its entries from (i.e. they are the inverse of a
        relabelling map).  Either may be ``None`` for identity.
        """
        rows, cols, vals = self.to_coo()
        if row_perm is not None:
            row_perm = _as_index_array(row_perm)
            if row_perm.shape[0] != self.nrows:
                raise ValueError("row permutation has wrong length")
            inv = np.empty_like(row_perm)
            inv[row_perm] = np.arange(self.nrows, dtype=_INDEX_DTYPE)
            rows = inv[rows]
        if col_perm is not None:
            col_perm = _as_index_array(col_perm)
            if col_perm.shape[0] != self.ncols:
                raise ValueError("column permutation has wrong length")
            inv = np.empty_like(col_perm)
            inv[col_perm] = np.arange(self.ncols, dtype=_INDEX_DTYPE)
            cols = inv[cols]
        return CSCMatrix.from_coo(
            self.nrows, self.ncols, rows, cols, vals, sum_duplicates=False
        )

    def prune_explicit_zeros(self, tol: float = 0.0) -> "CSCMatrix":
        """Drop stored entries whose magnitude is <= ``tol``."""
        keep = np.abs(self.data) > tol
        if keep.all():
            return self.copy()
        cols = np.repeat(
            np.arange(self.ncols, dtype=_INDEX_DTYPE), np.diff(self.indptr)
        )
        indptr = np.zeros(self.ncols + 1, dtype=_INDEX_DTYPE)
        indptr[1:] = np.cumsum(np.bincount(cols[keep], minlength=self.ncols))
        return CSCMatrix(
            nrows=self.nrows,
            ncols=self.ncols,
            indptr=indptr,
            indices=self.indices[keep],
            data=self.data[keep],
        )

    # ------------------------------------------------------------------
    # Comparison helpers (used heavily by the tests)
    # ------------------------------------------------------------------
    def allclose(self, other: "CSCMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Numerically compare two sparse matrices independent of stored-zero pattern."""
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nzc={self.nzc()}, dtype={self.data.dtype})"
        )


def build_csc_unchecked(nrows, ncols, indptr, indices, data) -> CSCMatrix:
    """Construct a :class:`CSCMatrix` without running validation.

    Internal fast path for kernels whose outputs satisfy the CSC invariants
    by construction (sorted, in-range, consistent indptr) — the per-call
    validation in ``__post_init__`` is measurable when a driver assembles
    tens of thousands of tiny blocks per run.  Callers outside this package
    should use the ordinary constructors.
    """
    m = object.__new__(CSCMatrix)
    m.nrows = int(nrows)
    m.ncols = int(ncols)
    m.indptr = indptr
    m.indices = indices
    m.data = data
    return m

"""Merging partial sparse results.

Two merge primitives are needed by the distributed algorithms:

* :func:`add_matrices` — elementwise sum of several same-shaped sparse
  matrices.  The outer-product 1D algorithm (Algorithm 3) and the 3D split
  algorithm both produce, on each process, *partial* results for the same
  output block that must be summed.
* :func:`kway_merge_columns` — merge column fragments (each covering a
  disjoint set of global columns) into one matrix.  Used when reassembling a
  1D-distributed output from per-process slices, and by the redistribution
  utilities.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .csc import CSCMatrix, build_csc_unchecked
from .conversion import as_csc
from .kernels import resolve_kernel_variant
from .ops import _keys_fit_int64

__all__ = ["add_matrices", "kway_merge_columns", "stack_columns"]

_INDEX_DTYPE = np.int64


def _add_matrices_python(mats: List[CSCMatrix]) -> CSCMatrix:
    """Per-column reference merge (the ``REPRO_KERNEL=python`` oracle).

    Accumulates duplicates sequentially in matrix-list order within each
    row — exactly the order the stable lexsort + ``np.add.at`` stream of the
    fast path applies them in, so the two are bit-identical.
    """
    nrows, ncols = mats[0].shape
    rows_out: List[np.ndarray] = []
    cols_out: List[np.ndarray] = []
    vals_out: List[np.ndarray] = []
    for j in range(ncols):
        parts = [m.column(j) for m in mats]
        rs = np.concatenate([p[0] for p in parts])
        if rs.size == 0:
            continue
        vs = np.concatenate([p[1] for p in parts])
        order = np.argsort(rs, kind="stable")
        rs = rs[order]
        vs = vs[order]
        out_rows: List[int] = []
        out_vals: List = []
        for t in range(rs.shape[0]):
            if out_rows and out_rows[-1] == rs[t]:
                out_vals[-1] = out_vals[-1] + vs[t]
            else:
                out_rows.append(int(rs[t]))
                out_vals.append(vs[t])
        rows_out.append(np.asarray(out_rows, dtype=_INDEX_DTYPE))
        cols_out.append(np.full(len(out_rows), j, dtype=_INDEX_DTYPE))
        vals_out.append(np.asarray(out_vals, dtype=vs.dtype))
    if not rows_out:
        return CSCMatrix.empty(nrows, ncols, dtype=mats[0].dtype)
    return CSCMatrix.from_coo(
        nrows,
        ncols,
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
        sum_duplicates=False,
    )


def add_matrices(matrices: Iterable) -> CSCMatrix:
    """Elementwise sum of same-shaped sparse matrices.

    Duplicate entries across inputs are accumulated; the result keeps any
    explicit zeros produced by cancellation (CombBLAS semantics).  Operands
    are promoted to a common value dtype up front so the fast and
    ``REPRO_KERNEL=python`` paths perform identical arithmetic.
    """
    mats: List[CSCMatrix] = [as_csc(m) for m in matrices]
    if not mats:
        raise ValueError("add_matrices requires at least one matrix")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"shape mismatch in add_matrices: {m.shape} vs {shape}")
    if len(mats) == 1:
        return mats[0].copy()
    dt = np.result_type(*[m.dtype for m in mats])
    mats = [m if m.dtype == dt else m.astype(dt) for m in mats]
    if resolve_kernel_variant() == "python" or not _keys_fit_int64(mats[0]):
        return _add_matrices_python(mats)
    rows = np.concatenate([m.indices for m in mats])
    # One repeat over the tiled column ids builds every operand's column
    # vector at once (all operands share the same shape).
    counts = np.concatenate([m.indptr[1:] - m.indptr[:-1] for m in mats])
    cols = np.repeat(
        np.tile(np.arange(shape[1], dtype=_INDEX_DTYPE), len(mats)), counts
    )
    vals = np.concatenate([m.data for m in mats])
    if rows.size == 0:
        return CSCMatrix.empty(shape[0], shape[1], dtype=dt)
    # Inlined ``from_coo(..., sum_duplicates=True)`` assembly: the operands
    # are valid CSC matrices of a checked common shape, so the COO triplets
    # need no bounds validation and the result no invariant re-checks.  A
    # stable sort of the linearised (col, row) keys is the permutation
    # ``np.lexsort((rows, cols))`` gives, but each operand is already one
    # sorted run (CSC rows are sorted per column), which timsort merges in
    # O(N log k) for k operands.
    order = np.argsort(cols * shape[0] + rows, kind="stable")
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    new_run = np.empty(rows.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group_ids = np.cumsum(new_run) - 1
    unique_rows = rows[new_run]
    summed = np.zeros(unique_rows.shape[0], dtype=vals.dtype)
    np.add.at(summed, group_ids, vals)
    indptr = np.zeros(shape[1] + 1, dtype=_INDEX_DTYPE)
    counts = np.bincount(cols[new_run], minlength=shape[1])
    indptr[1:] = np.cumsum(counts)
    return build_csc_unchecked(shape[0], shape[1], indptr, unique_rows, summed)


def stack_columns(matrices: Sequence, *, nrows: int | None = None) -> CSCMatrix:
    """Horizontally concatenate matrices (same row dimension) in order.

    The inverse of slicing a 1D column-distributed matrix into per-process
    pieces: ``stack_columns([C_0, ..., C_{P-1}])`` rebuilds the global C.
    """
    mats: List[CSCMatrix] = [as_csc(m) for m in matrices]
    if not mats:
        raise ValueError("stack_columns requires at least one matrix")
    if nrows is None:
        nrows = mats[0].nrows
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("all matrices must share the row dimension")
    total_cols = sum(m.ncols for m in mats)
    indptr = np.zeros(total_cols + 1, dtype=_INDEX_DTYPE)
    indices_parts: List[np.ndarray] = []
    data_parts: List[np.ndarray] = []
    col_offset = 0
    nnz_offset = 0
    for m in mats:
        indptr[col_offset + 1 : col_offset + m.ncols + 1] = m.indptr[1:] + nnz_offset
        indices_parts.append(m.indices)
        data_parts.append(m.data)
        col_offset += m.ncols
        nnz_offset += m.nnz
    indices = (
        np.concatenate(indices_parts) if indices_parts else np.zeros(0, dtype=_INDEX_DTYPE)
    )
    data = (
        np.concatenate(data_parts) if data_parts else np.zeros(0, dtype=np.float64)
    )
    return CSCMatrix(
        nrows=nrows, ncols=total_cols, indptr=indptr, indices=indices, data=data
    )


def kway_merge_columns(
    fragments: Sequence[Tuple[np.ndarray, CSCMatrix]],
    nrows: int,
    ncols: int,
) -> CSCMatrix:
    """Merge column fragments into an ``nrows × ncols`` matrix.

    Each fragment is ``(global_column_ids, matrix)`` where ``matrix`` has one
    column per listed global column.  Overlapping columns are summed (needed
    when partial outer-product results for the same column arrive from
    several processes).
    """
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []
    for global_cols, mat in fragments:
        mat = as_csc(mat)
        global_cols = np.asarray(global_cols, dtype=_INDEX_DTYPE)
        if global_cols.shape[0] != mat.ncols:
            raise ValueError("fragment column id list does not match matrix width")
        if mat.nrows != nrows:
            raise ValueError("fragment row dimension mismatch")
        if mat.nnz == 0:
            continue
        local_cols = np.repeat(
            np.arange(mat.ncols, dtype=_INDEX_DTYPE), np.diff(mat.indptr)
        )
        rows_parts.append(mat.indices)
        cols_parts.append(global_cols[local_cols])
        vals_parts.append(mat.data)
    if not rows_parts:
        return CSCMatrix.empty(nrows, ncols)
    return CSCMatrix.from_coo(
        nrows,
        ncols,
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )

"""Conversions between the local sparse containers and :mod:`scipy.sparse`.

scipy is used only at the edges of the library — for test oracles, for
reading/writing MatrixMarket files, and for users who already hold a scipy
matrix.  The distributed algorithms themselves operate on
:class:`~repro.sparse.csc.CSCMatrix` so that the communication layer
controls exactly which index/value arrays move.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .csc import CSCMatrix

__all__ = [
    "csc_from_scipy",
    "to_scipy",
    "as_csc",
]


def csc_from_scipy(mat) -> CSCMatrix:
    """Convert any scipy sparse matrix (or dense array) to :class:`CSCMatrix`."""
    if isinstance(mat, np.ndarray):
        return CSCMatrix.from_dense(mat)
    scipy_csc = sp.csc_matrix(mat)
    scipy_csc.sort_indices()
    scipy_csc.sum_duplicates()
    return CSCMatrix(
        nrows=scipy_csc.shape[0],
        ncols=scipy_csc.shape[1],
        indptr=scipy_csc.indptr.astype(np.int64),
        indices=scipy_csc.indices.astype(np.int64),
        data=np.asarray(scipy_csc.data),
    )


def to_scipy(mat: CSCMatrix) -> sp.csc_matrix:
    """Convert a local matrix back to a ``scipy.sparse.csc_matrix``."""
    if not isinstance(mat, CSCMatrix):
        raise TypeError(f"expected CSCMatrix, got {type(mat)!r}")
    return sp.csc_matrix(
        (mat.data.copy(), mat.indices.copy(), mat.indptr.copy()),
        shape=mat.shape,
    )


def as_csc(mat) -> CSCMatrix:
    """Coerce CSC/scipy/dense input to :class:`CSCMatrix` (no copy if already CSC)."""
    if isinstance(mat, CSCMatrix):
        return mat
    return csc_from_scipy(mat)

"""Matrix I/O: MatrixMarket (interchange) and npz (fast binary cache).

The paper's datasets come from the SuiteSparse collection as MatrixMarket
files.  Users of this library who *do* have those files (hv15r.mtx, …) can
load them with :func:`read_matrix_market` and run the same harness on the
real inputs; round-tripping through :func:`write_matrix_market` is used by
the tests.  scipy's ``mmread``/``mmwrite`` handle the format details.

:func:`write_npz`/:func:`read_npz` persist a :class:`CSCMatrix` as a
numpy ``.npz`` archive of its raw arrays — the storage format of the
dataset disk cache (:mod:`repro.matrices.cache`), orders of magnitude
faster than MatrixMarket text for the repeated loads a sweep performs.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np
import scipy.io
import scipy.sparse as sp

from ..sparse import CSCMatrix, csc_from_scipy, to_scipy

__all__ = ["read_matrix_market", "write_matrix_market", "read_npz", "write_npz"]

PathLike = Union[str, pathlib.Path]


def read_matrix_market(path: PathLike) -> CSCMatrix:
    """Read a MatrixMarket file into a :class:`CSCMatrix`."""
    mat = scipy.io.mmread(str(path))
    return csc_from_scipy(sp.csc_matrix(mat))


def write_matrix_market(path: PathLike, matrix, *, comment: str = "") -> None:
    """Write a :class:`CSCMatrix` to a MatrixMarket file."""
    scipy.io.mmwrite(str(path), to_scipy(matrix), comment=comment)


def write_npz(path: PathLike, matrix: CSCMatrix) -> None:
    """Persist a :class:`CSCMatrix` as an uncompressed ``.npz`` archive."""
    np.savez(
        str(path),
        shape=np.array(matrix.shape, dtype=np.int64),
        indptr=matrix.indptr,
        indices=matrix.indices,
        data=matrix.data,
    )


def read_npz(path: PathLike) -> CSCMatrix:
    """Load a :class:`CSCMatrix` written by :func:`write_npz`."""
    with np.load(str(path)) as archive:
        nrows, ncols = (int(x) for x in archive["shape"])
        return CSCMatrix(
            nrows=nrows,
            ncols=ncols,
            indptr=archive["indptr"],
            indices=archive["indices"],
            data=archive["data"],
        )

"""Kernel-variant contract suite: the ``REPRO_KERNEL`` selector.

Three properties are pinned here:

1. **Selector semantics** — ``auto``/``numpy``/``python`` resolve as
   documented (``auto`` is ``numpy``) and any other name fails fast.
2. **Bit-identity of the local kernels** — for randomised CSC inputs
   (including empty rows/columns, cancellation-produced zeros, float32 and
   float64, and masked multiplies) the numpy variant reproduces the pure
   python reference *exactly*: same indptr/indices bytes, same data bytes,
   same dtype.  Floats are compared bitwise, not approximately — MCL
   iteration counts and the golden ledgers depend on bitwise values.
3. **Bit-identity of the modelled counters** — all six drivers and the six
   registry workloads produce byte-identical records/ledgers under every
   variant (the golden-ledger idiom from the backend suite: the
   variant changes host wall-clock, never a modelled number).
"""

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
)
from repro.experiments import RunConfig
from repro.experiments.engine import execute_config
from repro.runtime import SimulatedCluster
from repro.sparse import (
    KERNEL_VARIANTS,
    CSCMatrix,
    as_csc,
    kernel_variant,
    local_spgemm,
    requested_kernel_variant,
    resolve_kernel_variant,
    set_kernel_variant,
)
from repro.sparse import kernels as kernels_mod
from repro.sparse import ops
from repro.sparse.merge import add_matrices

#: the fast variants compared against the ``python`` oracle
FAST = ("numpy",)


def _random_csc(m, n, density, seed, dtype=np.float64):
    mat = sp.random(m, n, density=density, random_state=seed, format="csc")
    out = as_csc(mat)
    return CSCMatrix(
        nrows=out.nrows,
        ncols=out.ncols,
        indptr=out.indptr,
        indices=out.indices,
        data=out.data.astype(dtype),
    )


def _assert_bit_identical(got: CSCMatrix, want: CSCMatrix, context: str):
    assert got.nrows == want.nrows and got.ncols == want.ncols, context
    np.testing.assert_array_equal(got.indptr, want.indptr, err_msg=context)
    np.testing.assert_array_equal(got.indices, want.indices, err_msg=context)
    assert got.data.dtype == want.data.dtype, context
    assert got.data.tobytes() == want.data.tobytes(), (
        f"{context}: data bytes differ (max abs diff "
        f"{np.max(np.abs(got.data - want.data)) if got.data.size else 0})"
    )


# ----------------------------------------------------------------------
# 1. Selector semantics
# ----------------------------------------------------------------------
class TestSelector:
    def test_variants_tuple(self):
        assert KERNEL_VARIANTS == ("auto", "numpy", "python")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            set_kernel_variant("fortran")
        with pytest.raises(ValueError):
            resolve_kernel_variant("jit")

    def test_auto_resolves_to_numpy(self):
        assert resolve_kernel_variant("auto") == "numpy"

    def test_context_manager_restores_request(self):
        before = requested_kernel_variant()
        with kernel_variant("python") as resolved:
            assert resolved == "python"
            assert requested_kernel_variant() == "python"
        assert requested_kernel_variant() == before

    def test_set_kernel_variant_exports_env(self, monkeypatch):
        # Pool workers resolve from the environment, so the setter must
        # publish the choice there.
        import os

        with kernel_variant("numpy"):
            assert os.environ["REPRO_KERNEL"] == "numpy"

    def test_env_var_drives_resolution(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_forced", None)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel_variant() == "python"
        monkeypatch.setenv("REPRO_KERNEL", "")
        assert resolve_kernel_variant() == resolve_kernel_variant("auto")


# ----------------------------------------------------------------------
# 2. Kernel bit-identity vs the python oracle (randomised + edge cases)
# ----------------------------------------------------------------------
class TestSpGEMMBitIdentity:
    @pytest.mark.parametrize("kernel", ["heap", "hash", "dense", "hybrid"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_products(self, kernel, dtype):
        for seed in range(4):
            A = _random_csc(60, 45, 0.08, seed=10 + seed, dtype=dtype)
            B = _random_csc(45, 50, 0.08, seed=90 + seed, dtype=dtype)
            want = local_spgemm(A, B, kernel=kernel, variant="python")
            for fast in FAST:
                got = local_spgemm(A, B, kernel=kernel, variant=fast)
                _assert_bit_identical(
                    got, want, f"{kernel}/{fast}/{np.dtype(dtype)}/seed={seed}"
                )

    def test_mixed_dtypes_promote_identically(self):
        A = _random_csc(40, 40, 0.1, seed=3, dtype=np.float32)
        B = _random_csc(40, 40, 0.1, seed=4, dtype=np.float64)
        want = local_spgemm(A, B, variant="python")
        assert want.data.dtype == np.float64
        for fast in FAST:
            _assert_bit_identical(
                local_spgemm(A, B, variant=fast), want, f"mixed-dtype/{fast}"
            )

    def test_empty_rows_and_columns(self):
        # B has fully empty columns, A fully empty rows: the product must
        # keep the empty structure identically in every variant.
        A = CSCMatrix.from_coo(
            6, 5, rows=[0, 0, 3], cols=[0, 2, 2], vals=[1.0, 2.0, 3.0]
        )
        B = CSCMatrix.from_coo(5, 4, rows=[0, 2], cols=[1, 1], vals=[5.0, 7.0])
        want = local_spgemm(A, B, variant="python")
        for fast in FAST:
            _assert_bit_identical(local_spgemm(A, B, variant=fast), want, fast)

    def test_all_zero_products_from_cancellation(self):
        # x + (-x) accumulates to exactly 0.0; kernels keep the explicit
        # zero (no pruning inside the multiply) in segment order.
        A = CSCMatrix.from_coo(
            2, 2, rows=[0, 0], cols=[0, 1], vals=[1.0, 1.0]
        )
        B = CSCMatrix.from_coo(
            2, 1, rows=[0, 1], cols=[0, 0], vals=[0.5, -0.5]
        )
        want = local_spgemm(A, B, variant="python")
        assert want.nnz == 1 and np.all(want.data == 0.0)
        for fast in FAST:
            _assert_bit_identical(local_spgemm(A, B, variant=fast), want, fast)

    @pytest.mark.parametrize("kernel", ["heap", "hash", "dense", "hybrid"])
    def test_lone_negative_zero_product_sums_from_positive_zero(self, kernel):
        # 0.0 · -1.0 is -0.0; every variant's sum starts from +0.0, so the
        # stored entry is +0.0 and the data bytes agree.
        A = CSCMatrix.from_coo(3, 2, rows=[0, 1], cols=[0, 1], vals=[0.0, 2.0])
        B = CSCMatrix.from_coo(2, 1, rows=[0, 1], cols=[0, 0], vals=[-1.0, 3.0])
        want = local_spgemm(A, B, kernel=kernel, variant="python")
        assert not np.signbit(want.data).any()
        for fast in FAST:
            got = local_spgemm(A, B, kernel=kernel, variant=fast)
            _assert_bit_identical(got, want, f"signed-zero/{kernel}/{fast}")

    @pytest.mark.parametrize("kernel", ["heap", "hash", "dense", "hybrid"])
    def test_empty_operands(self, kernel):
        A = CSCMatrix.empty(10, 0)
        B = CSCMatrix.empty(0, 7)
        want = local_spgemm(A, B, kernel=kernel, variant="python")
        for fast in FAST:
            got = local_spgemm(A, B, kernel=kernel, variant=fast)
            _assert_bit_identical(got, want, f"empty/{kernel}/{fast}")


class TestElementwiseBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elementwise_multiply(self, dtype):
        for seed in range(5):
            A = _random_csc(50, 35, 0.12, seed=20 + seed, dtype=dtype)
            B = _random_csc(50, 35, 0.12, seed=70 + seed, dtype=dtype)
            with kernel_variant("python"):
                want = ops.elementwise_multiply(A, B)
            for fast in FAST:
                with kernel_variant(fast):
                    got = ops.elementwise_multiply(A, B)
                _assert_bit_identical(got, want, f"ewise-mult/{fast}/seed={seed}")

    @pytest.mark.parametrize("complement", [False, True])
    def test_elementwise_mask(self, complement):
        for seed in range(5):
            A = _random_csc(40, 40, 0.15, seed=30 + seed)
            M = _random_csc(40, 40, 0.15, seed=60 + seed)
            with kernel_variant("python"):
                want = ops.elementwise_mask(A, M, complement=complement)
            for fast in FAST:
                with kernel_variant(fast):
                    got = ops.elementwise_mask(A, M, complement=complement)
                _assert_bit_identical(
                    got, want, f"mask/complement={complement}/{fast}/seed={seed}"
                )

    def test_masked_multiply_interaction(self):
        # mask(A·B, M) — the triangle-counting composition — must be
        # bit-stable end to end, not just per primitive.
        A = _random_csc(45, 45, 0.1, seed=41)
        M = _random_csc(45, 45, 0.2, seed=42)
        with kernel_variant("python"):
            want = ops.elementwise_mask(local_spgemm(A, A), M)
        for fast in FAST:
            with kernel_variant(fast):
                got = ops.elementwise_mask(local_spgemm(A, A), M)
            _assert_bit_identical(got, want, f"masked-multiply/{fast}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_matrices(self, dtype):
        for seed in range(5):
            mats = [
                _random_csc(30, 25, 0.1, seed=100 + 7 * seed + j, dtype=dtype)
                for j in range(4)
            ]
            with kernel_variant("python"):
                want = add_matrices(mats)
            for fast in FAST:
                with kernel_variant(fast):
                    got = add_matrices(mats)
                _assert_bit_identical(got, want, f"add/{fast}/seed={seed}")

    def test_add_matrices_cancellation_keeps_explicit_zero(self):
        X = _random_csc(20, 20, 0.2, seed=5)
        negX = CSCMatrix(
            nrows=X.nrows, ncols=X.ncols, indptr=X.indptr,
            indices=X.indices, data=-X.data,
        )
        with kernel_variant("python"):
            want = add_matrices([X, negX])
        assert want.nnz == X.nnz and np.all(want.data == 0.0)
        for fast in FAST:
            with kernel_variant(fast):
                got = add_matrices([X, negX])
            _assert_bit_identical(got, want, f"add-cancel/{fast}")

    def test_empty_operands(self):
        A = CSCMatrix.empty(12, 9)
        B = _random_csc(12, 9, 0.2, seed=6)
        for fast in FAST:
            with kernel_variant(fast):
                assert ops.elementwise_multiply(A, B).nnz == 0
                assert ops.elementwise_mask(B, A).nnz == 0
                _assert_bit_identical(
                    ops.elementwise_mask(B, A, complement=True), B, "mask-empty"
                )

    def test_duplicate_free_inputs_assumed_and_preserved(self):
        # from_coo with duplicate (i,j) entries sums them on construction —
        # the kernels therefore only ever see duplicate-eliminated CSC, and
        # their outputs are duplicate-free too.
        M = CSCMatrix.from_coo(
            4, 4, rows=[1, 1, 2], cols=[0, 0, 3], vals=[1.0, 2.0, 4.0]
        )
        assert M.nnz == 2  # duplicates eliminated at ingest
        for fast in FAST:
            with kernel_variant(fast):
                prod = ops.elementwise_multiply(M, M)
            keys = prod.indices + 4 * np.repeat(
                np.arange(4), np.diff(prod.indptr)
            )
            assert len(np.unique(keys)) == prod.nnz

    def test_prune_explicit_zeros_matches_dense(self):
        A = _random_csc(30, 30, 0.2, seed=7)
        A.data[::3] = 0.0
        pruned = A.prune_explicit_zeros()
        np.testing.assert_array_equal(pruned.to_dense(), A.to_dense())
        assert pruned.nnz == int(np.count_nonzero(A.data))


# ----------------------------------------------------------------------
# 3. Driver and workload bit-identity across variants
# ----------------------------------------------------------------------
DRIVERS = [
    ("1d-sparsity-aware", lambda: SparsityAware1D(block_split=8), 4),
    ("1d-outer-product", lambda: OuterProduct1D(), 4),
    ("1d-naive-block-row", lambda: NaiveBlockRow1D(), 4),
    ("1d-improved-block-row", lambda: ImprovedBlockRow1D(), 4),
    ("2d-summa", lambda: SparseSUMMA2D(), 4),
    ("3d-split", lambda: SplitSpGEMM3D(layers=2), 8),
]


def _driver_fingerprint(factory, nprocs):
    A = _random_csc(64, 64, 0.08, seed=11)
    B = _random_csc(64, 64, 0.08, seed=12)
    cluster = SimulatedCluster(nprocs)
    result = factory().multiply(A, B, cluster)
    C = result.C
    return (
        C.indptr.tobytes(), C.indices.tobytes(), C.data.tobytes(),
        str(C.data.dtype),
        result.elapsed_time, result.comm_time, result.comp_time,
        result.other_time, result.communication_volume,
        result.message_count, result.rdma_gets, result.load_imbalance,
        tuple(sorted(result.info.items())),
    )


class TestDriverBitIdentity:
    @pytest.mark.parametrize("name,factory,nprocs", DRIVERS)
    def test_all_drivers_variant_invariant(self, name, factory, nprocs):
        with kernel_variant("python"):
            want = _driver_fingerprint(factory, nprocs)
        for fast in FAST:
            with kernel_variant(fast):
                got = _driver_fingerprint(factory, nprocs)
            assert got == want, f"{name} drifted under variant {fast!r}"


WORKLOAD_CONFIGS = [
    RunConfig(dataset="hv15r", algorithm="1d", nprocs=4, block_split=16,
              scale=0.1),
    RunConfig(dataset="hv15r", algorithm="1d", nprocs=4, block_split=16,
              scale=0.1, workload="chained-squaring", square_k=2),
    RunConfig(dataset="queen", algorithm="1d", nprocs=4, scale=0.1,
              workload="amg-restriction"),
    RunConfig(dataset="hv15r", algorithm="1d", nprocs=4, scale=0.1,
              workload="bc", bc_sources=8, bc_batch=8, bc_source_stride=4),
    RunConfig(dataset="eukarya", algorithm="1d", nprocs=4, block_split=16,
              scale=0.1, workload="triangles"),
    RunConfig(dataset="eukarya", algorithm="1d", nprocs=4, block_split=16,
              scale=0.1, workload="mcl", mcl_max_iters=40),
]


class TestWorkloadBitIdentity:
    @pytest.mark.parametrize(
        "config", WORKLOAD_CONFIGS, ids=[c.workload for c in WORKLOAD_CONFIGS]
    )
    def test_registry_workloads_variant_invariant(self, config):
        # The strongest form of the invariance claim: the *serialised
        # record* — every modelled counter, series, and extra — is
        # byte-identical under every runnable variant.
        with kernel_variant("python"):
            want = execute_config(config).to_json_line()
        for fast in FAST:
            with kernel_variant(fast):
                got = execute_config(config).to_json_line()
            assert got == want, (
                f"workload {config.workload!r} record drifted under {fast!r}"
            )

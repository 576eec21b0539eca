"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SparsityAware1D, plan_block_fetch
from repro.partition import (
    apply_symmetric_permutation,
    invert_permutation,
    partition_matrix,
    random_symmetric_permutation,
)
from repro.runtime import SimulatedCluster, ZERO_COST
from repro.sparse import (
    CSCMatrix,
    add_matrices,
    local_spgemm,
    spgemm_flops,
    to_scipy,
)

# Shared hypothesis settings: the matrices are tiny, but simulated runs are
# not free, so cap example counts to keep the suite fast and deterministic.
FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def coo_matrix(draw, max_dim=12, max_entries=40, square=False):
    """Random small sparse matrix expressed as COO triplets."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=max_dim))
    n_entries = draw(st.integers(min_value=0, max_value=max_entries))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=n_entries, max_size=n_entries)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=n_entries, max_size=n_entries)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
            min_size=n_entries,
            max_size=n_entries,
        )
    )
    return CSCMatrix.from_coo(nrows, ncols, rows, cols, vals)


@st.composite
def matrix_pair(draw, max_dim=10):
    """A multiplication-compatible pair of random sparse matrices."""
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    A = draw(coo_matrix(max_dim=max(m, k)))
    B = draw(coo_matrix(max_dim=max(k, n)))
    # Rebuild with the agreed shapes (reusing entries that fit).
    ra, ca, va = A.to_coo()
    keep_a = (ra < m) & (ca < k)
    rb, cb, vb = B.to_coo()
    keep_b = (rb < k) & (cb < n)
    return (
        CSCMatrix.from_coo(m, k, ra[keep_a], ca[keep_a], va[keep_a]),
        CSCMatrix.from_coo(k, n, rb[keep_b], cb[keep_b], vb[keep_b]),
    )


# ----------------------------------------------------------------------
# Container invariants
# ----------------------------------------------------------------------
class TestContainerProperties:
    @FAST
    @given(coo_matrix())
    def test_transpose_is_involution(self, A):
        assert A.transpose().transpose().allclose(A)

    @FAST
    @given(coo_matrix())
    def test_scipy_roundtrip(self, A):
        from repro.sparse import csc_from_scipy

        assert csc_from_scipy(to_scipy(A)).allclose(A)

    @FAST
    @given(coo_matrix())
    def test_column_nnz_sums_to_nnz(self, A):
        assert int(A.column_nnz().sum()) == A.nnz
        assert int(A.row_nnz().sum()) == A.nnz

    @FAST
    @given(coo_matrix(square=True), st.integers(0, 2**31 - 1))
    def test_symmetric_permutation_preserves_multiset_of_values(self, A, seed):
        perm = random_symmetric_permutation(A.nrows, seed=seed)
        permuted = apply_symmetric_permutation(A, perm)
        np.testing.assert_allclose(
            np.sort(permuted.data), np.sort(A.data), atol=1e-12
        )

    @FAST
    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    def test_permutation_inverse_property(self, n, seed):
        perm = random_symmetric_permutation(n, seed=seed)
        inv = invert_permutation(perm)
        np.testing.assert_array_equal(perm[inv], np.arange(n))


# ----------------------------------------------------------------------
# Kernel invariants
# ----------------------------------------------------------------------
class TestKernelProperties:
    @FAST
    @given(matrix_pair())
    def test_local_spgemm_matches_scipy(self, pair):
        A, B = pair
        C = local_spgemm(A, B)
        expected = (to_scipy(A) @ to_scipy(B)).toarray()
        np.testing.assert_allclose(C.to_dense(), expected, atol=1e-8)

    @FAST
    @given(matrix_pair())
    def test_all_kernels_agree(self, pair):
        A, B = pair
        dense = local_spgemm(A, B, kernel="dense").to_dense()
        for kernel in ("heap", "hash", "hybrid"):
            np.testing.assert_allclose(
                local_spgemm(A, B, kernel=kernel).to_dense(), dense, atol=1e-8
            )

    @FAST
    @given(matrix_pair())
    def test_output_nnz_bounded_by_flops(self, pair):
        A, B = pair
        C = local_spgemm(A, B)
        # Stored entries can exceed flops only through explicitly stored zeros
        # in the operands; prune them for the bound.
        assert C.prune_explicit_zeros().nnz <= max(spgemm_flops(A, B), 0) or C.nnz == 0

    @FAST
    @given(coo_matrix(), coo_matrix())
    def test_addition_is_commutative(self, A, B):
        if A.shape != B.shape:
            return
        np.testing.assert_allclose(
            add_matrices([A, B]).to_dense(), add_matrices([B, A]).to_dense(), atol=1e-10
        )

    @FAST
    @given(coo_matrix(square=True))
    def test_distributive_law(self, A):
        """(A + A)·A == A·A + A·A — exercises add + multiply consistency."""
        left = local_spgemm(add_matrices([A, A]), A)
        right = add_matrices([local_spgemm(A, A), local_spgemm(A, A)])
        np.testing.assert_allclose(left.to_dense(), right.to_dense(), atol=1e-8)


# ----------------------------------------------------------------------
# Block-fetch invariants
# ----------------------------------------------------------------------
class TestBlockFetchProperties:
    @FAST
    @given(
        st.integers(1, 200),
        st.integers(1, 64),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    def test_plan_invariants(self, ncols, K, hit_rate, seed):
        rng = np.random.default_rng(seed)
        universe = 4 * ncols
        remote = np.sort(rng.choice(universe, size=ncols, replace=False))
        hit = rng.random(universe) < hit_rate
        plan = plan_block_fetch(remote, hit, K)
        # 1. Message count bounded by K.
        assert plan.M <= K
        # 2. Every required column is covered.
        assert np.all(np.isin(plan.required_positions, plan.covered_positions))
        # 3. Intervals are disjoint and ordered.
        for (s0, e0), (s1, e1) in zip(plan.intervals, plan.intervals[1:]):
            assert e0 <= s1
        # 4. Covered positions equal the union of the intervals.
        covered = sum(e - s for s, e in plan.intervals)
        assert covered == plan.fetched_columns


# ----------------------------------------------------------------------
# Distributed algorithm invariants
# ----------------------------------------------------------------------
class TestDistributedProperties:
    @FAST
    @given(coo_matrix(square=True, max_dim=16, max_entries=60), st.integers(1, 5))
    def test_1d_squaring_matches_local(self, A, nprocs):
        cluster = SimulatedCluster(nprocs, cost_model=ZERO_COST)
        result = SparsityAware1D(block_split=4).multiply(A, A, cluster)
        expected = local_spgemm(A, A)
        np.testing.assert_allclose(
            result.C.to_dense(), expected.to_dense(), atol=1e-8
        )

    @FAST
    @given(coo_matrix(square=True, max_dim=14, max_entries=50), st.integers(1, 4))
    def test_partition_is_total_and_in_range(self, A, nparts):
        result = partition_matrix(A, nparts, seed=0)
        assert result.parts.shape[0] == A.ncols
        if A.ncols:
            assert result.parts.min() >= 0
            assert result.parts.max() < nparts
        assert result.part_sizes().sum() == A.ncols

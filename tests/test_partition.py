"""Unit tests for permutations, graph construction, coarsening, refinement and partitioning."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.generators import community_graph, banded
from repro.partition import (
    AdjacencyGraph,
    ColumnNetHypergraph,
    apply_ordering,
    apply_symmetric_permutation,
    balance_ratio,
    coarsen_graph,
    coarsen_to_size,
    connectivity_cut,
    degree_vertex_weights,
    greedy_hypergraph_partition,
    greedy_kway_refine,
    heavy_edge_matching,
    identity_ordering,
    invert_permutation,
    is_balanced,
    ordering_from_partition,
    partition_graph,
    partition_matrix,
    partition_weights,
    random_symmetric_permutation,
    rcm_ordering,
    spgemm_vertex_weights,
    squaring_vertex_weights,
)
from repro.sparse import as_csc



def _sym_random(n, density, seed):
    m = sp.random(n, n, density=density, random_state=seed, format="csc")
    return as_csc(m + m.T)


# ----------------------------------------------------------------------
# Random symmetric permutation
# ----------------------------------------------------------------------
class TestRandomPermutation:
    def test_permutation_is_bijection(self):
        perm = random_symmetric_permutation(100, seed=1)
        assert np.array_equal(np.sort(perm), np.arange(100))

    def test_seed_reproducibility(self):
        assert np.array_equal(
            random_symmetric_permutation(50, seed=7),
            random_symmetric_permutation(50, seed=7),
        )

    def test_invert_permutation(self):
        perm = random_symmetric_permutation(30, seed=2)
        inv = invert_permutation(perm)
        np.testing.assert_array_equal(perm[inv], np.arange(30))
        np.testing.assert_array_equal(inv[perm], np.arange(30))

    def test_apply_preserves_nnz_and_spectrum(self, small_symmetric):
        perm = random_symmetric_permutation(small_symmetric.nrows, seed=3)
        permuted = apply_symmetric_permutation(small_symmetric, perm)
        assert permuted.nnz == small_symmetric.nnz
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(permuted.to_dense())),
            np.sort(np.linalg.eigvalsh(small_symmetric.to_dense())),
            atol=1e-8,
        )

    def test_apply_entry_mapping(self, small_symmetric):
        perm = random_symmetric_permutation(small_symmetric.nrows, seed=4)
        permuted = apply_symmetric_permutation(small_symmetric, perm)
        dense = small_symmetric.to_dense()
        np.testing.assert_allclose(permuted.to_dense(), dense[np.ix_(perm, perm)])

    def test_requires_square(self, small_rect):
        with pytest.raises(ValueError):
            apply_symmetric_permutation(small_rect, np.arange(small_rect.nrows))

    def test_wrong_length_raises(self, small_symmetric):
        with pytest.raises(ValueError):
            apply_symmetric_permutation(small_symmetric, np.arange(3))


# ----------------------------------------------------------------------
# Vertex weights
# ----------------------------------------------------------------------
class TestWeights:
    def test_squaring_weights_are_squared_degrees(self, small_symmetric):
        w = squaring_vertex_weights(small_symmetric)
        col = small_symmetric.column_nnz().astype(np.int64)
        np.testing.assert_array_equal(w, col * col)

    def test_squaring_weights_require_square(self, small_rect):
        with pytest.raises(ValueError):
            squaring_vertex_weights(small_rect)

    def test_spgemm_weights(self, small_square):
        B = small_square.transpose()
        w = spgemm_vertex_weights(small_square, B)
        assert w.shape[0] == small_square.ncols
        assert (w >= 0).all()

    def test_degree_weights(self, small_square):
        np.testing.assert_array_equal(
            degree_vertex_weights(small_square), small_square.column_nnz()
        )

    def test_balance_ratio_perfect(self):
        w = np.ones(8)
        parts = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert balance_ratio(w, parts, 4) == pytest.approx(1.0)

    def test_balance_ratio_skewed(self):
        w = np.ones(4)
        parts = np.array([0, 0, 0, 1])
        assert balance_ratio(w, parts, 2) == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Adjacency graph
# ----------------------------------------------------------------------
class TestAdjacencyGraph:
    def test_from_matrix_drops_diagonal(self):
        A = as_csc(np.array([[1.0, 1.0], [1.0, 1.0]]))
        g = AdjacencyGraph.from_matrix(A)
        assert g.nvertices == 2
        assert g.nedges == 1  # only the off-diagonal pair

    def test_symmetrisation_of_unsymmetric_input(self, small_square):
        g = AdjacencyGraph.from_matrix(small_square)
        # adjacency stored twice per undirected edge
        assert g.adjncy.shape[0] == 2 * g.nedges

    def test_vertex_weights_default_ones(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(small_symmetric)
        assert (g.vwgt == 1).all()

    def test_vertex_weights_clamped_positive(self, small_symmetric):
        w = np.zeros(small_symmetric.ncols, dtype=np.int64)
        g = AdjacencyGraph.from_matrix(small_symmetric, vertex_weights=w)
        assert (g.vwgt >= 1).all()

    def test_weights_wrong_length(self, small_symmetric):
        with pytest.raises(ValueError):
            AdjacencyGraph.from_matrix(small_symmetric, vertex_weights=np.ones(3))

    def test_requires_square(self, small_rect):
        with pytest.raises(ValueError):
            AdjacencyGraph.from_matrix(small_rect)

    def test_neighbours_and_degree(self):
        A = as_csc(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
        g = AdjacencyGraph.from_matrix(A)
        neigh, _ = g.neighbours(0)
        assert set(neigh.tolist()) == {1, 2}
        assert g.degree(0) == 2
        assert g.degree(1) == 1

    def test_edge_cut(self):
        # path graph 0-1-2-3 split in the middle: cut = 1
        A = as_csc(
            np.array(
                [
                    [0, 1, 0, 0],
                    [1, 0, 1, 0],
                    [0, 1, 0, 1],
                    [0, 0, 1, 0],
                ],
                dtype=float,
            )
        )
        g = AdjacencyGraph.from_matrix(A)
        assert g.edge_cut(np.array([0, 0, 1, 1])) == 1
        assert g.edge_cut(np.array([0, 1, 0, 1])) == 3

    def test_edge_cut_wrong_length(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(small_symmetric)
        with pytest.raises(ValueError):
            g.edge_cut(np.zeros(3, dtype=np.int64))


# ----------------------------------------------------------------------
# Coarsening
# ----------------------------------------------------------------------
class TestCoarsening:
    def test_matching_is_symmetric_and_total(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(small_symmetric)
        match = heavy_edge_matching(g, seed=0)
        assert match.shape[0] == g.nvertices
        for v in range(g.nvertices):
            assert match[match[v]] == v

    def test_coarsen_preserves_total_vertex_weight(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(
            small_symmetric, vertex_weights=squaring_vertex_weights(small_symmetric)
        )
        level = coarsen_graph(g, seed=0)
        assert level.coarse_graph.total_vertex_weight() == g.total_vertex_weight()

    def test_coarsen_reduces_vertex_count(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(small_symmetric)
        level = coarsen_graph(g, seed=0)
        assert level.coarse_graph.nvertices < g.nvertices

    def test_fine_to_coarse_mapping_valid(self, small_symmetric):
        g = AdjacencyGraph.from_matrix(small_symmetric)
        level = coarsen_graph(g, seed=0)
        assert level.fine_to_coarse.min() >= 0
        assert level.fine_to_coarse.max() < level.coarse_graph.nvertices

    def test_coarsen_to_size_hierarchy(self):
        A = _sym_random(200, 0.05, seed=5)
        g = AdjacencyGraph.from_matrix(A)
        hierarchy = coarsen_to_size(g, 40, seed=0)
        assert hierarchy
        assert hierarchy[-1].coarse_graph.nvertices <= 0.95 * g.nvertices
        # hierarchy is chained: each level's fine graph is the previous coarse graph
        for prev, nxt in zip(hierarchy, hierarchy[1:]):
            assert nxt.fine_graph is prev.coarse_graph

    def test_coarsen_to_size_already_small(self):
        A = _sym_random(20, 0.2, seed=6)
        g = AdjacencyGraph.from_matrix(A)
        assert coarsen_to_size(g, 50) == []


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------
class TestRefinement:
    def test_refinement_never_increases_cut(self):
        A = _sym_random(120, 0.06, seed=8)
        g = AdjacencyGraph.from_matrix(A)
        rng = np.random.default_rng(0)
        parts = rng.integers(0, 4, size=g.nvertices)
        before = g.edge_cut(parts)
        refined = greedy_kway_refine(g, parts, 4, seed=0)
        assert g.edge_cut(refined) <= before

    def test_refinement_respects_balance(self):
        A = _sym_random(120, 0.06, seed=9)
        g = AdjacencyGraph.from_matrix(A)
        rng = np.random.default_rng(1)
        parts = rng.integers(0, 4, size=g.nvertices)
        refined = greedy_kway_refine(g, parts, 4, imbalance=0.10, seed=0)
        # Start balanced-ish, must stay within the (looser) limit afterwards.
        assert is_balanced(g, refined, 4, imbalance=0.35)

    def test_refinement_does_not_empty_parts(self):
        A = _sym_random(60, 0.1, seed=10)
        g = AdjacencyGraph.from_matrix(A)
        parts = np.arange(g.nvertices) % 3
        refined = greedy_kway_refine(g, parts, 3, seed=0)
        assert set(np.unique(refined)) == {0, 1, 2}

    def test_partition_weights_helper(self):
        A = _sym_random(30, 0.2, seed=11)
        g = AdjacencyGraph.from_matrix(A)
        parts = np.zeros(g.nvertices, dtype=np.int64)
        w = partition_weights(g, parts, 2)
        assert w[0] == g.total_vertex_weight()
        assert w[1] == 0

    def test_wrong_length_raises(self):
        A = _sym_random(30, 0.2, seed=12)
        g = AdjacencyGraph.from_matrix(A)
        with pytest.raises(ValueError):
            greedy_kway_refine(g, np.zeros(5, dtype=np.int64), 2)


# ----------------------------------------------------------------------
# Multilevel partitioner (METIS substitute)
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_partition_assigns_every_vertex(self):
        A = community_graph(300, 6, 12, mixing=0.05, shuffle=True, seed=1)
        result = partition_matrix(A, 6, seed=0)
        assert result.parts.shape[0] == A.ncols
        assert result.parts.min() >= 0 and result.parts.max() < 6

    def test_partition_balance_reasonable(self):
        A = community_graph(300, 6, 12, mixing=0.05, shuffle=True, seed=2)
        result = partition_matrix(A, 6, seed=0)
        assert result.balance < 1.6

    def test_partition_beats_random_on_community_graph(self):
        A = community_graph(400, 8, 14, mixing=0.05, shuffle=True, seed=3)
        from repro.partition.graph import AdjacencyGraph as AG

        g = AG.from_matrix(A)
        rng = np.random.default_rng(0)
        random_parts = rng.integers(0, 8, size=g.nvertices)
        result = partition_matrix(A, 8, seed=0)
        assert result.edge_cut < 0.6 * g.edge_cut(random_parts)

    def test_single_part_is_trivial(self, small_symmetric):
        result = partition_matrix(small_symmetric, 1)
        assert result.edge_cut == 0
        assert (result.parts == 0).all()

    def test_partition_records_seconds(self, small_symmetric):
        result = partition_matrix(small_symmetric, 4)
        assert result.seconds >= 0

    def test_part_sizes_sum_to_n(self, small_symmetric):
        result = partition_matrix(small_symmetric, 4)
        assert result.part_sizes().sum() == small_symmetric.ncols

    def test_invalid_nparts(self, small_symmetric):
        from repro.partition.graph import AdjacencyGraph as AG

        g = AG.from_matrix(small_symmetric)
        with pytest.raises(ValueError):
            partition_graph(g, 0)

    def test_flops_weights_used_by_default(self):
        # A star graph: the hub has a huge flops weight; with flops weights the
        # hub's part should end up with far fewer vertices than the others.
        n = 81
        rows = np.concatenate([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
        cols = np.concatenate([np.arange(1, n), np.zeros(n - 1, dtype=np.int64)])
        from repro.sparse import CSCMatrix

        A = CSCMatrix.from_coo(n, n, rows, cols, np.ones(2 * (n - 1)))
        weighted = partition_matrix(A, 4, use_flops_weights=True, seed=0)
        hub_part = weighted.parts[0]
        hub_part_size = int((weighted.parts == hub_part).sum())
        other_sizes = [int((weighted.parts == p).sum()) for p in range(4) if p != hub_part]
        assert hub_part_size <= min(other_sizes)


# ----------------------------------------------------------------------
# Hypergraph model
# ----------------------------------------------------------------------
class TestHypergraph:
    def test_from_matrix_structure(self, small_square):
        hg = ColumnNetHypergraph.from_matrix(small_square)
        assert hg.nvertices == small_square.ncols
        assert hg.nnets == small_square.nrows
        assert hg.net_pins.shape[0] == small_square.nnz

    def test_connectivity_cut_single_part_zero(self, small_symmetric):
        hg = ColumnNetHypergraph.from_matrix(small_symmetric)
        parts = np.zeros(hg.nvertices, dtype=np.int64)
        assert connectivity_cut(hg, parts) == 0

    def test_greedy_partition_balanced(self):
        A = community_graph(200, 4, 10, mixing=0.1, shuffle=False, seed=4)
        hg = ColumnNetHypergraph.from_matrix(A)
        parts = greedy_hypergraph_partition(hg, 4, seed=0)
        sizes = np.bincount(parts, minlength=4)
        assert sizes.min() > 0
        cut = connectivity_cut(hg, parts)
        rng = np.random.default_rng(0)
        random_cut = connectivity_cut(hg, rng.integers(0, 4, size=hg.nvertices))
        assert cut <= random_cut

    def test_single_part(self, small_symmetric):
        hg = ColumnNetHypergraph.from_matrix(small_symmetric)
        parts = greedy_hypergraph_partition(hg, 1)
        assert (parts == 0).all()


# ----------------------------------------------------------------------
# Orderings
# ----------------------------------------------------------------------
class TestOrdering:
    def test_identity_ordering_blocks(self):
        o = identity_ordering(10, 3)
        assert o.block_sizes == [4, 3, 3]
        np.testing.assert_array_equal(o.perm, np.arange(10))

    def test_ordering_from_partition_groups_parts(self):
        A = community_graph(150, 3, 10, mixing=0.05, shuffle=True, seed=5)
        result = partition_matrix(A, 3, seed=0)
        ordering = ordering_from_partition(result)
        assert sum(ordering.block_sizes) == A.ncols
        # After the permutation, each contiguous block holds one part.
        reordered_parts = result.parts[ordering.perm]
        start = 0
        for size in ordering.block_sizes:
            block = reordered_parts[start : start + size]
            assert len(np.unique(block)) <= 1
            start += size

    def test_apply_ordering_preserves_spectrum(self, small_symmetric):
        o = rcm_ordering(small_symmetric, 4)
        permuted = apply_ordering(small_symmetric, o)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(permuted.to_dense())),
            np.sort(np.linalg.eigvalsh(small_symmetric.to_dense())),
            atol=1e-8,
        )

    def test_rcm_reduces_bandwidth_of_shuffled_banded_matrix(self):
        from repro.matrices.stats import bandwidth_profile

        A = banded(200, 6, symmetric=True, seed=6)
        perm = random_symmetric_permutation(200, seed=7)
        shuffled = apply_symmetric_permutation(A, perm)
        o = rcm_ordering(shuffled, 4)
        recovered = apply_ordering(shuffled, o)
        _, mean_shuffled = bandwidth_profile(shuffled)
        _, mean_recovered = bandwidth_profile(recovered)
        assert mean_recovered < mean_shuffled

    def test_rcm_perm_is_bijection(self, small_symmetric):
        o = rcm_ordering(small_symmetric, 2)
        np.testing.assert_array_equal(np.sort(o.perm), np.arange(small_symmetric.ncols))

    def test_ordering_nparts(self):
        o = identity_ordering(12, 4)
        assert o.nparts == 4

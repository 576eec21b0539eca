"""Integration tests reproducing the paper's qualitative claims end to end.

Each test exercises the full stack (generators → partitioner → distributed
algorithm → ledger) and asserts the *direction* of a result the paper reports.
Absolute numbers differ (simulated machine, scaled-down inputs); orderings and
large ratios are what these tests pin down.
"""

from __future__ import annotations

import numpy as np

from repro.apps.amg import build_restriction, galerkin_product, left_multiplication
from repro.apps.bc import batched_betweenness_centrality
from repro.apps.squaring import run_squaring
from repro.core import (
    SparsityAware1D,
    estimate_communication,
    make_algorithm,
)
from repro.matrices import load_dataset
from repro.partition import (
    apply_ordering,
    ordering_from_partition,
    partition_matrix,
)
from repro.runtime import SimulatedCluster
from repro.sparse import local_spgemm


class TestSquaringClaims:
    def test_fig4_hv15r_no_permutation_beats_random_by_large_factor(self):
        """Fig 4/§IV-A-1: on hv15r the original ordering cuts communication
        time by a large factor vs random permutation (16.9× in the paper)."""
        A = load_dataset("hv15r", scale=0.5)
        none_run = run_squaring(A, algorithm="1d", strategy="none", nprocs=16, block_split=32)
        rand_run = run_squaring(A, algorithm="1d", strategy="random", nprocs=16, block_split=32)
        assert none_run.result.comm_time * 3 < rand_run.result.comm_time
        assert none_run.spgemm_time < rand_run.spgemm_time

    def test_fig5_communication_volume_reduction_is_large(self):
        """Fig 5: the right permutation reduces communication volume by ~96%;
        at laptop scale we require at least a 70% reduction."""
        A = load_dataset("hv15r", scale=0.5)
        none_run = run_squaring(A, algorithm="1d", strategy="none", nprocs=16, block_split=32)
        rand_run = run_squaring(A, algorithm="1d", strategy="random", nprocs=16, block_split=32)
        reduction = 1 - none_run.result.communication_volume / max(
            1, rand_run.result.communication_volume
        )
        assert reduction > 0.70

    def test_fig5_eukarya_metis_cuts_volume(self):
        """Fig 5(b): on eukarya, METIS partitioning (not the natural order)
        provides the volume reduction."""
        A = load_dataset("eukarya", scale=0.15)
        none_run = run_squaring(A, algorithm="1d", strategy="none", nprocs=8, seed=0)
        metis_run = run_squaring(A, algorithm="1d", strategy="metis", nprocs=8, seed=0)
        reduction = 1 - metis_run.result.communication_volume / max(
            1, none_run.result.communication_volume
        )
        assert reduction > 0.30

    def test_fig6_block_fetch_reduces_messages(self):
        """Fig 6: blocking the fetches sharply reduces RDMA message counts
        relative to per-column fetching.  The effect is largest when many
        scattered remote columns are needed, so the randomly permuted input
        (the worst case for column locality) is used here."""
        A = load_dataset("hv15r", scale=0.5)
        per_column = run_squaring(
            A, algorithm="1d", strategy="random", nprocs=8, block_split=10**6
        )
        blocked = run_squaring(
            A, algorithm="1d", strategy="random", nprocs=8, block_split=8
        )
        assert blocked.result.rdma_gets < per_column.result.rdma_gets / 4
        # and the volume grows only modestly
        assert (
            blocked.result.communication_volume
            <= 3 * per_column.result.communication_volume
        )

    def test_fig9_1d_beats_2d_and_3d_on_clustered_dataset(self):
        """Fig 9 (hv15r/queen): the sparsity-aware 1D algorithm outperforms the
        2D and 3D baselines on clustered inputs, kernel time only."""
        A = load_dataset("queen", scale=0.5)
        p = 16
        run_1d = run_squaring(A, algorithm="1d", strategy="none", nprocs=p, block_split=16)
        run_2d = run_squaring(A, algorithm="2d", strategy="random", nprocs=p)
        run_3d = run_squaring(A, algorithm="3d", strategy="random", nprocs=p, layers=4)
        assert run_1d.spgemm_time < run_2d.spgemm_time
        assert run_1d.spgemm_time < run_3d.spgemm_time

    def test_fig9_work_is_split_across_processes(self):
        """Fig 9 (laptop-scale caveat): at the paper's sizes the 1D algorithm
        strong-scales; at this reproduction's sizes the α (latency) terms
        dominate past ~16 processes, so the test asserts the part of strong
        scaling that is size-independent — the computation per rank shrinks
        proportionally and the total never blows up."""
        A = load_dataset("hv15r", scale=1.0)
        runs = {
            p: run_squaring(A, algorithm="1d", strategy="none", nprocs=p, block_split=32)
            for p in (4, 16)
        }
        assert runs[16].result.comp_time < runs[4].result.comp_time
        assert runs[16].spgemm_time < 3 * runs[4].spgemm_time

    def test_discussion_cv_mema_criterion_separates_datasets(self):
        """§V-A: CV/memA ≈ 1 for eukarya-like inputs, well under the 30%
        threshold for clustered ones."""
        clustered = load_dataset("queen", scale=0.1)
        scattered = load_dataset("eukarya", scale=0.12)
        cv_clustered = estimate_communication(clustered, nprocs=16).cv_over_mema
        cv_scattered = estimate_communication(scattered, nprocs=16).cv_over_mema
        assert cv_clustered < 0.30
        assert cv_scattered > 0.55


class TestRestrictionClaims:
    def test_table3_restriction_structure(self):
        """Table III: one nonzero per row, far fewer columns than rows."""
        for name in ("queen", "hv15r", "nlpkkt"):
            A = load_dataset(name, scale=0.08)
            rest = build_restriction(A, seed=0)
            assert rest.R.nnz == rest.R.nrows
            assert rest.n_coarse < rest.n_fine

    def test_fig10_rta_natural_order_beats_random(self):
        """Fig 10: on queen, using the original dataset beats random
        permutation for RᵀA."""
        A = load_dataset("queen", scale=0.1)
        rest = build_restriction(A, seed=0)
        from repro.partition import apply_symmetric_permutation, random_symmetric_permutation
        from repro.sparse.ops import transpose

        natural = left_multiplication(rest.R, A, algorithm="1d", nprocs=8)
        perm = random_symmetric_permutation(A.nrows, seed=1)
        A_perm = apply_symmetric_permutation(A, perm)
        R_perm = rest.R.permute(row_perm=perm)  # rows of R follow the fine grid
        permuted = left_multiplication(R_perm, A_perm, algorithm="1d", nprocs=8)
        assert natural.comm_time < permuted.comm_time

    def test_fig11_rta_1d_beats_2d(self):
        """Fig 11: 1D is the fastest variant on the restriction product."""
        A = load_dataset("queen", scale=0.5)
        rest = build_restriction(A, seed=0)
        t_1d = left_multiplication(rest.R, A, algorithm="1d", nprocs=16).elapsed_time
        t_2d = left_multiplication(rest.R, A, algorithm="2d", nprocs=16).elapsed_time
        assert t_1d < t_2d

    def test_fig12_outer_product_beats_1d_on_right_multiplication(self):
        """Fig 12: the outer-product algorithm wins on (RᵀA)·R."""
        A = load_dataset("queen", scale=0.1)
        g_outer = galerkin_product(
            A, left_algorithm="1d", right_algorithm="outer-product", nprocs=16
        )
        g_1d = galerkin_product(
            A, left_algorithm="1d", right_algorithm="1d", nprocs=16
        )
        assert g_outer.right.elapsed_time < g_1d.right.elapsed_time

    def test_galerkin_correctness_on_all_datasets(self):
        for name in ("queen", "nlpkkt"):
            A = load_dataset(name, scale=0.05)
            g = galerkin_product(A, nprocs=4)
            from repro.sparse.ops import transpose

            expected = local_spgemm(
                local_spgemm(transpose(g.restriction.R), A), g.restriction.R
            )
            np.testing.assert_allclose(
                g.coarse.to_dense(), expected.to_dense(), atol=1e-8
            )


class TestBCClaims:
    def test_fig13_metis_reduces_1d_bc_communication_on_eukarya(self):
        """Fig 13 (eukarya): the 1D algorithm needs METIS partitioning on this
        input; with it, the per-iteration fetch volume drops relative to the
        natural ordering.  (The paper's absolute-time win over 2D/3D needs
        paper-scale inputs where volume, not latency, dominates — see
        EXPERIMENTS.md.)"""
        A = load_dataset("eukarya", scale=0.1)
        ordering = ordering_from_partition(partition_matrix(A, 4, seed=0))
        A_metis = apply_ordering(A, ordering)
        sources = list(range(16))

        def total_volume(mat):
            res = batched_betweenness_centrality(
                mat, sources=sources, batch_size=16, algorithm="1d", nprocs=4
            )
            return sum(r.communication_volume for r in res.iterations)

        assert total_volume(A_metis) < total_volume(A)

    def test_fig14_1d_moves_far_less_data_than_2d_3d_on_hv15r(self):
        """Fig 14 (hv15r): the sparsity-aware 1D algorithm's BC iterations move
        several times less data than the 2D/3D baselines, which broadcast
        blocks of A every BFS level regardless of what the frontier needs."""
        A = load_dataset("hv15r", scale=0.5)
        sources = list(range(0, 64, 4))

        def total_volume(algorithm):
            res = batched_betweenness_centrality(
                A, sources=sources, batch_size=16, algorithm=algorithm, nprocs=4
            )
            return sum(r.communication_volume for r in res.iterations)

        vol_1d = total_volume("1d")
        vol_2d = total_volume("2d")
        vol_3d = total_volume("3d")
        assert vol_1d * 2 < vol_2d
        assert vol_1d * 2 < vol_3d

    def test_fig14_all_algorithms_agree_on_scores(self):
        """Whatever the distributed algorithm, the BC scores are identical —
        the comparison in Figs 13-14 is about time, not output."""
        A = load_dataset("hv15r", scale=0.08)
        sources = list(range(8))
        reference = batched_betweenness_centrality(
            A, sources=sources, batch_size=8, algorithm="local"
        ).scores
        for algorithm in ("1d", "3d"):
            scores = batched_betweenness_centrality(
                A, sources=sources, batch_size=8, algorithm=algorithm, nprocs=4
            ).scores
            np.testing.assert_allclose(scores, reference, atol=1e-8)

    def test_fig14_memory_pressure_of_2d_exceeds_1d(self):
        """Fig 14: the 2D algorithm ran out of memory in the backward sweep;
        its modelled peak memory must exceed the 1D algorithm's."""
        A = load_dataset("hv15r", scale=0.2)
        cluster_1d = SimulatedCluster(4)
        SparsityAware1D().multiply(A, A, cluster_1d)
        cluster_2d = SimulatedCluster(4)
        make_algorithm("2d").multiply(A, A, cluster_2d)
        assert (
            cluster_2d.ledger.max_peak_memory() > cluster_1d.ledger.max_peak_memory()
        )

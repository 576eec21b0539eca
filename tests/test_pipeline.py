"""Resident-operand prepare/execute pipeline tests.

Pins the PR's central guarantees:

* ``multiply()`` (the legacy wrapper) is ``execute(prepare(...))`` and every
  modelled number it produces matches a standalone run;
* ``SpGEMMResult`` carries the *distributed* C — the global matrix assembles
  lazily, ``output_nnz`` never assembles, and modelled-only engine runs
  write byte-identical stores whether or not assembly is forced;
* resident reuse: a stationary 1D operand pays window setup once, chained
  squaring ``A^(2^k)`` equals the same levels run independently, BC with
  hoisted setup charges the setup phase exactly once per run, and the AMG
  chain records no intermediate global gather.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DistributedOperand,
    SpGEMMResult,
    as_operand,
    coerce_columns_1d,
    make_algorithm,
)
from repro.distribution import DistributedColumns1D
from repro.runtime import PERLMUTTER, SimulatedCluster

ALL_ALGORITHMS = (
    "1d",
    "2d",
    "3d",
    "outer-product",
    "1d-naive-block-row",
    "1d-improved-block-row",
)


def _fresh_result(algorithm, A, nprocs=16):
    cluster = SimulatedCluster(nprocs, cost_model=PERLMUTTER)
    return make_algorithm(algorithm).multiply(A, A, cluster), cluster


def _force_eager_assembly(monkeypatch):
    """Make every in-process result assemble its global C at construction."""
    lazy_init = SpGEMMResult.__post_init__

    def eager_init(self):
        lazy_init(self)
        _ = self.C

    monkeypatch.setattr(SpGEMMResult, "__post_init__", eager_init)


class TestDistributedOperand:
    def test_global_operand_roundtrip(self, small_square):
        op = as_operand(small_square)
        assert op.layout == "global"
        assert op.shape == small_square.shape
        assert op.nnz == small_square.nnz
        assert op.global_matrix() is small_square

    def test_columns_coercion_reuses_resident_operand(self, small_square):
        dist = DistributedColumns1D.from_global(small_square, 4)
        op = as_operand(dist)
        assert coerce_columns_1d(op, 4) is op
        # Mismatched process count falls back to redistribution.
        other = coerce_columns_1d(op, 2)
        assert other is not op
        assert other.dist.nprocs == 2

    def test_coercion_with_matching_bounds_reuses(self, small_square):
        bounds = [(0, 10), (10, 60)]
        dist = DistributedColumns1D.from_global(small_square, 2, bounds=bounds)
        op = as_operand(dist)
        assert coerce_columns_1d(op, 2, bounds=bounds) is op
        assert coerce_columns_1d(op, 2, bounds=[(0, 30), (30, 60)]) is not op

    def test_operand_requires_backing(self):
        with pytest.raises(ValueError):
            DistributedOperand(layout="1d-columns")


class TestLazyAssembly:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_result_assembles_lazily_and_nnz_matches(self, small_square, algorithm):
        result, _ = _fresh_result(algorithm, small_square)
        assert result.assembled is False
        nnz_lazy = result.output_nnz          # must not assemble
        assert result.assembled is False
        C = result.C                          # first access assembles
        assert result.assembled is True
        assert nnz_lazy == C.nnz == result.output_nnz
        assert result.C is C                  # cached

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_lazy_c_equals_legacy_product(self, small_square, algorithm):
        """The lazily assembled C is the true product (dense reference)."""
        result, _ = _fresh_result(algorithm, small_square)
        dense = small_square.to_dense()
        np.testing.assert_allclose(
            result.C.to_dense(), dense @ dense, rtol=1e-9, atol=1e-11
        )

    def test_forced_eager_assembly_assembles_at_construction(
        self, small_square, monkeypatch
    ):
        _force_eager_assembly(monkeypatch)
        result, _ = _fresh_result("1d", small_square)
        assert result.assembled is True


class TestPrepareExecute:
    def test_multiply_equals_prepare_execute(self, small_square):
        algo = make_algorithm("1d", block_split=64)
        c1 = SimulatedCluster(8, cost_model=PERLMUTTER)
        via_wrapper = algo.multiply(small_square, small_square, c1)
        c2 = SimulatedCluster(8, cost_model=PERLMUTTER)
        prepared = algo.prepare(small_square, small_square, c2)
        via_pipeline = algo.execute(prepared)
        assert via_wrapper.elapsed_time == via_pipeline.elapsed_time
        assert via_wrapper.communication_volume == via_pipeline.communication_volume
        assert via_wrapper.message_count == via_pipeline.message_count
        assert via_wrapper.info == via_pipeline.info

    def test_resident_operand_pays_setup_once(self, small_square):
        """Re-executing against the same exposed A charges no second setup."""
        algo = make_algorithm("1d", block_split=64)
        cluster = SimulatedCluster(8, cost_model=PERLMUTTER)
        op_a = algo.prepare_operand(small_square, cluster)
        assert op_a.exposed
        setup_after_prepare = [
            st.total_time for st in cluster.ledger.phases["setup"]
        ]
        with cluster.phase_scope("it0:"):
            algo.execute(algo.prepare(op_a, small_square, cluster))
        with cluster.phase_scope("it1:"):
            algo.execute(algo.prepare(op_a, small_square, cluster))
        # One setup phase in the whole run ledger, untouched by the iterations.
        setup_phases = [p for p in cluster.ledger.phase_order if "setup" in p]
        assert setup_phases == ["setup"]
        assert [
            st.total_time for st in cluster.ledger.phases["setup"]
        ] == setup_after_prepare

    def test_operand_exposed_on_other_cluster_is_rejected(self, small_square):
        """The window charges its owning cluster — cross-cluster reuse would
        silently account the fetch phase to the wrong run, so it must raise."""
        algo = make_algorithm("1d", block_split=64)
        cluster1 = SimulatedCluster(4, cost_model=PERLMUTTER)
        op_a = algo.prepare_operand(small_square, cluster1)
        cluster2 = SimulatedCluster(4, cost_model=PERLMUTTER)
        with pytest.raises(ValueError, match="different cluster"):
            algo.prepare(op_a, small_square, cluster2)

    def test_scoped_execution_slices_its_own_ledger(self, small_square):
        algo = make_algorithm("1d", block_split=64)
        cluster = SimulatedCluster(4, cost_model=PERLMUTTER)
        with cluster.phase_scope("sq0:"):
            r0 = algo.execute(algo.prepare(small_square, small_square, cluster))
        reference = make_algorithm("1d", block_split=64).multiply(
            small_square, small_square, SimulatedCluster(4, cost_model=PERLMUTTER)
        )
        assert r0.ledger.phase_order == reference.ledger.phase_order
        assert r0.elapsed_time == reference.elapsed_time
        assert r0.communication_volume == reference.communication_volume

    def test_dimension_mismatch_still_raises(self, small_square, tall_thin=None):
        algo = make_algorithm("1d")
        cluster = SimulatedCluster(4, cost_model=PERLMUTTER)
        from repro.sparse import CSCMatrix

        bad = CSCMatrix.empty(small_square.ncols + 1, 8)
        with pytest.raises(ValueError, match="inner dimensions"):
            algo.prepare(small_square, bad, cluster)


class TestChainedSquaring:
    def test_chain_equals_independent_squarings(self, small_symmetric):
        """A^4 via resident chaining == two independent A·A squarings of A²."""
        from repro.apps.squaring import run_chained_squaring

        chain = run_chained_squaring(
            small_symmetric, k=2, algorithm="1d", nprocs=4, block_split=32
        )
        cl1 = SimulatedCluster(4, cost_model=PERLMUTTER)
        first = make_algorithm("1d", block_split=32).multiply(
            small_symmetric, small_symmetric, cl1
        )
        A2 = first.C
        cl2 = SimulatedCluster(4, cost_model=PERLMUTTER)
        second = make_algorithm("1d", block_split=32).multiply(A2, A2, cl2)

        for level, reference in zip(chain.results, (first, second)):
            assert level.elapsed_time == reference.elapsed_time
            assert level.communication_volume == reference.communication_volume
            assert level.message_count == reference.message_count
            assert level.rdma_gets == reference.rdma_gets
            assert level.info == reference.info
        # The final product is bit-identical to the independently computed A^4.
        C_chain, C_ref = chain.final.C, second.C
        assert np.array_equal(C_chain.indptr, C_ref.indptr)
        assert np.array_equal(C_chain.indices, C_ref.indices)
        assert np.array_equal(C_chain.data, C_ref.data)
        # Whole-chain time is the sum of the levels.
        assert chain.elapsed_time == first.elapsed_time + second.elapsed_time

    def test_intermediate_levels_never_assemble(self, small_symmetric):
        from repro.apps.squaring import run_chained_squaring

        chain = run_chained_squaring(
            small_symmetric, k=3, algorithm="1d", nprocs=4, block_split=32
        )
        for level in chain.results:
            assert level.assembled is False

    def test_chain_requires_positive_k(self, small_symmetric):
        from repro.apps.squaring import run_chained_squaring

        with pytest.raises(ValueError, match="k >= 1"):
            run_chained_squaring(small_symmetric, k=0)

    def test_chain_conserves(self, small_symmetric):
        from repro.apps.squaring import run_chained_squaring

        chain = run_chained_squaring(
            small_symmetric, k=2, algorithm="1d", nprocs=4, block_split=32
        )
        chain.ledger.assert_conserved()
        for level in chain.results:
            level.ledger.assert_conserved()


class TestResidentBC:
    def test_setup_charged_exactly_once_per_run(self, small_symmetric):
        from repro.apps.bc import batched_betweenness_centrality

        result = batched_betweenness_centrality(
            small_symmetric,
            num_sources=6,
            batch_size=3,           # several batches → many iterations
            algorithm="1d",
            nprocs=4,
            seed=0,
            resident=True,
        )
        setup = [r for r in result.iterations if r.phase == "setup"]
        assert len(setup) == 1
        assert setup[0].modelled_time > 0.0
        # Every iteration ledger (and the setup slice) still conserves.
        assert all(r.conserved for r in result.iterations)

    def test_resident_scores_match_legacy_and_local(self, small_symmetric):
        from repro.apps.bc import batched_betweenness_centrality

        kwargs = dict(num_sources=6, batch_size=6, nprocs=4, seed=0)
        legacy = batched_betweenness_centrality(
            small_symmetric, algorithm="1d", **kwargs
        )
        resident = batched_betweenness_centrality(
            small_symmetric, algorithm="1d", resident=True, **kwargs
        )
        local = batched_betweenness_centrality(
            small_symmetric, algorithm="local", **kwargs
        )
        np.testing.assert_allclose(resident.scores, legacy.scores)
        np.testing.assert_allclose(resident.scores, local.scores)

    def test_resident_charges_less_setup_than_legacy(self, small_symmetric):
        """Hoisting must strictly reduce total modelled time (fewer setups)."""
        from repro.apps.bc import batched_betweenness_centrality

        kwargs = dict(num_sources=6, batch_size=6, algorithm="1d", nprocs=4, seed=0)
        legacy = batched_betweenness_centrality(small_symmetric, **kwargs)
        resident = batched_betweenness_centrality(
            small_symmetric, resident=True, **kwargs
        )
        n_spgemms = len([r for r in legacy.iterations])
        assert n_spgemms > 1
        assert resident.total_time < legacy.total_time
        # Per-iteration fetch volumes are unchanged; only setup accounting moved.
        legacy_iter = [
            r for r in legacy.iterations if r.phase in ("forward", "backward")
        ]
        resident_iter = [
            r for r in resident.iterations if r.phase in ("forward", "backward")
        ]
        assert [r.frontier_nnz for r in legacy_iter] == [
            r.frontier_nnz for r in resident_iter
        ]
        assert [r.rdma_gets for r in legacy_iter] == [
            r.rdma_gets for r in resident_iter
        ]


class TestResidentAMGChain:
    def test_chain_records_no_intermediate_gather(self, small_symmetric):
        from repro.apps.amg import (
            build_restriction,
            left_multiplication,
            right_multiplication,
        )

        restriction = build_restriction(small_symmetric, seed=0)
        left = left_multiplication(
            restriction.R, small_symmetric, algorithm="1d", nprocs=4
        )
        right = right_multiplication(left, restriction.R, nprocs=4)
        # The resident chain never assembled the intermediate RᵀA …
        assert left.assembled is False
        # … and the counters equal the legacy gather-then-scatter path.
        left2 = left_multiplication(
            restriction.R, small_symmetric, algorithm="1d", nprocs=4
        )
        right_legacy = right_multiplication(left2.C, restriction.R, nprocs=4)
        assert right.elapsed_time == right_legacy.elapsed_time
        assert right.communication_volume == right_legacy.communication_volume
        assert right.message_count == right_legacy.message_count
        assert right.output_nnz == right_legacy.output_nnz

    def test_galerkin_product_resident_flag_equivalence(self, small_symmetric):
        from repro.apps.amg import galerkin_product

        resident = galerkin_product(small_symmetric, nprocs=4, resident=True)
        legacy = galerkin_product(small_symmetric, nprocs=4, resident=False)
        assert resident.left.elapsed_time == legacy.left.elapsed_time
        assert resident.right.elapsed_time == legacy.right.elapsed_time
        assert resident.coarse.nnz == legacy.coarse.nnz
        np.testing.assert_allclose(
            resident.coarse.to_dense(), legacy.coarse.to_dense()
        )


class TestEngineSkipsAssembly:
    def test_store_byte_identical_with_and_without_assembly(
        self, tmp_path, monkeypatch
    ):
        """Satellite regression: lazy global-C assembly changes no record.

        One sweep runs normally (no executor ever touches ``result.C``), a
        second (serial, in-process) forces every result to assemble at
        construction; the persisted JSONL stores must be byte-identical.
        """
        from repro.experiments import RunConfig, run_grid

        configs = [
            RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=0.1),
            RunConfig(
                dataset="hv15r", workload="chained-squaring", algorithm="1d",
                nprocs=4, block_split=16, scale=0.1, square_k=2,
            ),
            RunConfig(
                dataset="queen", workload="amg-restriction", algorithm="1d",
                nprocs=4, scale=0.1, amg_phase="rtar",
            ),
            RunConfig(
                dataset="hv15r", workload="bc", algorithm="1d", nprocs=4,
                scale=0.1, bc_sources=4, bc_batch=4, bc_source_stride=4,
                resident=True,
            ),
        ]
        lazy_store = tmp_path / "lazy.jsonl"
        run_grid(configs, store=str(lazy_store))
        _force_eager_assembly(monkeypatch)
        eager_store = tmp_path / "eager.jsonl"
        run_grid(configs, store=str(eager_store))
        assert lazy_store.read_bytes() == eager_store.read_bytes()

"""Triangle-counting and Markov-clustering workloads (PR-5 tentpole apps).

Acceptance criteria pinned here:

* triangle counts are exact against a local scipy reference on **all**
  bundled datasets and all six drivers;
* MCL reaches convergence with every iteration's ledger conserved;
* the new config axes are covered by the hash yet elided at their defaults,
  so every pre-PR5 config hash is unchanged (pinned against literal PR-4
  hashes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.mcl import build_stochastic_matrix, run_mcl
from repro.apps.triangles import (
    build_lower_triangle,
    reference_triangle_count,
    run_triangles,
)
from repro.experiments import (
    ExperimentGrid,
    RunConfig,
    RunRecord,
    execute_config,
    run_grid,
)
from repro.matrices import dataset_names, load_dataset

SCALE = 0.1


@pytest.fixture(scope="module")
def graph():
    return load_dataset("eukarya", scale=SCALE)


class TestTriangleApp:
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_exact_on_every_bundled_dataset(self, dataset):
        A = load_dataset(dataset, scale=SCALE)
        run = run_triangles(A, algorithm="1d", nprocs=4, dataset=dataset)
        assert run.matches_reference
        assert run.triangles == run.reference
        assert run.result.ledger.is_conserved()

    @pytest.mark.parametrize(
        "driver",
        ("1d", "2d", "3d", "outer-product",
         "1d-naive-block-row", "1d-improved-block-row"),
    )
    def test_exact_on_every_driver(self, driver, graph):
        run = run_triangles(graph, algorithm=driver, nprocs=4)
        assert run.matches_reference

    def test_early_mask_same_count_no_more_volume(self, graph):
        late = run_triangles(graph, algorithm="1d", nprocs=4, mask_mode="late")
        early = run_triangles(graph, algorithm="1d", nprocs=4, mask_mode="early")
        assert early.triangles == late.triangles
        # For triangles mask support == operand support, so early pruning can
        # only remove already-empty columns: never *more* volume.
        assert early.result.communication_volume <= late.result.communication_volume

    def test_lower_triangle_is_strict_and_symmetrised(self, graph):
        L = build_lower_triangle(graph)
        r, c, v = L.to_coo()
        assert np.all(r > c)
        assert np.all(v == 1.0)
        # Dropping orientation reproduces the symmetrised loop-free edge set.
        assert reference_triangle_count(L) == run_triangles(
            graph, algorithm="1d", nprocs=4
        ).triangles

    def test_count_reduction_is_charged(self, graph):
        run = run_triangles(graph, algorithm="1d", nprocs=4)
        assert "count" in run.result.ledger.phases
        count = run.result.ledger.phases["count"]
        assert sum(st.bytes_received for st in count) > 0  # the allreduce

    def test_rectangular_input_rejected(self):
        from repro.sparse import CSCMatrix

        with pytest.raises(ValueError, match="square"):
            run_triangles(CSCMatrix.empty(4, 5), nprocs=2)


class TestMCLApp:
    def test_converges_with_every_iteration_conserved(self, graph):
        run = run_mcl(graph, nprocs=4, max_iterations=40)
        assert run.converged
        assert run.n_iterations <= 40
        assert run.iterations, "empty iteration series"
        assert all(it.conserved for it in run.iterations)
        assert run.ledger.is_conserved()
        # 4 phase entries per executed iteration, in order.
        assert len(run.iterations) == 4 * run.n_iterations
        phases = [it.phase for it in run.iterations[:4]]
        assert phases == ["expand", "inflate", "prune", "converge"]

    def test_series_reconciles_with_topline(self, graph):
        run = run_mcl(graph, nprocs=4, max_iterations=40)
        assert sum(it.volume for it in run.iterations) == run.communication_volume
        assert sum(it.messages for it in run.iterations) == run.message_count
        assert sum(it.time for it in run.iterations) == pytest.approx(
            run.elapsed_time, rel=1e-12
        )

    def test_inflate_entries_keep_the_expansion_pattern(self, graph):
        """Inflation is power + scale — it never drops entries, so each
        inflate entry's nnz equals its iteration's expand nnz, and only
        prune shrinks the iterate."""
        run = run_mcl(graph, nprocs=4, max_iterations=40)
        by_iter = {}
        for it in run.iterations:
            by_iter.setdefault(it.iteration, {})[it.phase] = it
        for phases in by_iter.values():
            assert phases["inflate"].nnz == phases["expand"].nnz
            assert phases["prune"].nnz <= phases["inflate"].nnz
            assert phases["converge"].nnz == phases["prune"].nnz

    def test_final_iterate_is_column_stochastic(self, graph):
        run = run_mcl(graph, nprocs=4, max_iterations=40)
        final = run.final.global_matrix()
        sums = np.zeros(final.ncols)
        col_of_entry = np.repeat(
            np.arange(final.ncols, dtype=np.int64), np.diff(final.indptr)
        )
        np.add.at(sums, col_of_entry, final.data)
        nonzero = sums[sums > 0]
        assert np.allclose(nonzero, 1.0)

    def test_clusters_found_on_community_graph(self, graph):
        """eukarya is a community graph — MCL should find several clusters."""
        run = run_mcl(graph, nprocs=4, max_iterations=40)
        assert 1 < run.n_clusters < graph.nrows

    def test_stochastic_matrix_has_self_loops_and_unit_columns(self, graph):
        M = build_stochastic_matrix(graph)
        dense = M.to_dense()
        assert np.all(np.diag(dense) > 0)
        assert np.allclose(dense.sum(axis=0), 1.0)

    def test_rejects_non_column_algorithms(self, graph):
        with pytest.raises(ValueError, match="1D-column"):
            run_mcl(graph, algorithm="2d", nprocs=4)

    def test_deterministic(self, graph):
        a = run_mcl(graph, nprocs=4, max_iterations=40)
        b = run_mcl(graph, nprocs=4, max_iterations=40)
        assert a.n_iterations == b.n_iterations
        assert a.final_nnz == b.final_nnz
        assert a.communication_volume == b.communication_volume
        assert [it.volume for it in a.iterations] == [it.volume for it in b.iterations]


class TestPR5ConfigAxes:
    def test_pre_pr5_hashes_unchanged(self):
        """Pinned against literal hashes captured from the PR-4 tree.

        If any of these change, every cached record store silently
        invalidates.
        """
        pins = [
            (RunConfig(dataset="eukarya", algorithm="1d", strategy="metis",
                       nprocs=16, block_split=32, scale=0.25),
             "029a01b08a1a8790"),
            (RunConfig(dataset="hv15r", algorithm="1d", nprocs=4,
                       block_split=32, scale=0.2),
             "8283f506c91d25eb"),
            (RunConfig(dataset="hv15r", workload="bc", algorithm="1d", nprocs=4,
                       scale=0.2, bc_sources=8, bc_batch=8, bc_source_stride=4,
                       resident=True),
             "0a4c1a1018886f79"),
            (RunConfig(dataset="hv15r", workload="chained-squaring",
                       algorithm="1d", nprocs=4, block_split=32, scale=0.2,
                       square_k=2),
             "d34ce87dab988d34"),
        ]
        for config, expected in pins:
            assert config.config_hash() == expected
            for key in ("mask_mode", "mcl_inflation", "mcl_prune", "mcl_max_iters"):
                assert key not in config.canonical_json()

    def test_explicit_late_mask_mode_shares_the_default_hash(self):
        """mask_mode=None and mask_mode="late" run identically (the executor
        resolves None to "late"), so they must share one cache key."""
        tri = RunConfig(dataset="eukarya", workload="triangles", scale=SCALE)
        late = tri.with_updates(mask_mode="late")
        assert late.config_hash() == tri.config_hash()
        assert "mask_mode" not in late.canonical_json()

    def test_new_axes_discriminate_hashes(self):
        tri = RunConfig(dataset="eukarya", workload="triangles", scale=SCALE)
        assert tri.config_hash() != tri.with_updates(mask_mode="early").config_hash()
        assert '"mask_mode":"early"' in tri.with_updates(mask_mode="early").canonical_json()
        mcl = RunConfig(dataset="eukarya", workload="mcl", scale=SCALE)
        hashes = {
            mcl.config_hash(),
            mcl.with_updates(mcl_inflation=1.5).config_hash(),
            mcl.with_updates(mcl_prune=1e-2).config_hash(),
            mcl.with_updates(mcl_max_iters=5).config_hash(),
        }
        assert len(hashes) == 4

    def test_pr4_record_rows_parse_without_new_fields(self):
        old = RunConfig(dataset="hv15r", scale=SCALE)
        data = old.as_dict()
        for key in ("mask_mode", "mcl_inflation", "mcl_prune", "mcl_max_iters"):
            del data[key]
        parsed = RunConfig.from_dict(data)
        assert parsed == old
        assert parsed.config_hash() == old.config_hash()

    def test_grid_applies_new_axes_per_workload(self):
        grid = ExperimentGrid(
            datasets=("eukarya",),
            workloads=("squaring", "triangles", "mcl"),
            process_counts=(4,),
            scale=SCALE,
            mask_mode="early",
            mcl_inflation=1.5,
            mcl_prune=1e-2,
            mcl_max_iters=10,
        )
        by_workload = {c.workload: c for c in grid.expand()}
        assert by_workload["triangles"].mask_mode == "early"
        assert by_workload["triangles"].mcl_inflation is None
        assert by_workload["mcl"].mcl_inflation == 1.5
        assert by_workload["mcl"].mcl_prune == 1e-2
        assert by_workload["mcl"].mcl_max_iters == 10
        assert by_workload["mcl"].mask_mode is None
        assert by_workload["squaring"].mask_mode is None
        assert by_workload["squaring"].mcl_inflation is None


class TestWorkloadRecords:
    def test_triangles_record_round_trip(self):
        config = RunConfig(
            dataset="eukarya", workload="triangles", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE,
        )
        record = execute_config(config)
        assert record.workload == "triangles"
        assert record.triangles is not None
        assert record.triangles.reference_match
        assert record.triangles.triangles > 0
        assert record.conserved
        assert record.output_nnz == record.triangles.masked_nnz
        line = record.to_json_line()
        assert RunRecord.from_json_line(line).to_json_line() == line

    def test_triangles_count_invariant_under_strategy(self):
        """Permutation reorients L but never changes the triangle count."""
        base = RunConfig(
            dataset="eukarya", workload="triangles", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE,
        )
        counts = {
            strategy: execute_config(
                base.with_updates(strategy=strategy)
            ).triangles.triangles
            for strategy in ("none", "random", "metis")
        }
        assert len(set(counts.values())) == 1, counts

    def test_mcl_record_round_trip_and_convergence(self):
        config = RunConfig(
            dataset="eukarya", workload="mcl", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE, mcl_max_iters=40,
        )
        record = execute_config(config)
        assert record.workload == "mcl"
        assert record.mcl is not None
        assert record.mcl.converged
        assert record.mcl.n_iterations >= 1
        assert record.conserved
        assert len(record.mcl.iterations) == 4 * record.mcl.n_iterations
        assert record.output_nnz == record.mcl.final_nnz
        line = record.to_json_line()
        assert RunRecord.from_json_line(line).to_json_line() == line

    def test_engine_cache_hits_new_workloads(self, tmp_path):
        store = tmp_path / "records.jsonl"
        grid = [
            RunConfig(dataset="eukarya", workload="triangles", algorithm="1d",
                      nprocs=4, block_split=16, scale=SCALE),
            RunConfig(dataset="eukarya", workload="mcl", algorithm="1d",
                      nprocs=4, block_split=16, scale=SCALE, mcl_max_iters=40),
        ]
        first = run_grid(grid, store=str(store))
        assert first.stats.executed == 2
        second = run_grid(grid, store=str(store))
        assert second.stats.executed == 0
        assert second.stats.cached == 2
        assert [r.to_json_line() for r in first] == [r.to_json_line() for r in second]

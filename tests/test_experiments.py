"""Tests for the parallel experiment engine, the dataset disk cache, and
the squaring-driver regressions fixed alongside it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentGrid,
    ResultStore,
    RunConfig,
    RunRecord,
    execute_config,
    run_grid,
)
from repro.matrices import dataset_cache_path, load_dataset
from repro.matrices.cache import CACHE_ENV
from repro.runtime import PERLMUTTER


# A small grid that still exercises two algorithms, two process counts and
# two seeds: 8 configs, the minimum the acceptance criteria ask of the
# serial-vs-parallel comparison.
def _small_grid() -> ExperimentGrid:
    return ExperimentGrid(
        datasets=("hv15r",),
        algorithms=("1d", "2d"),
        strategies=("random",),
        process_counts=(4, 16),
        block_splits=(16,),
        seeds=(0, 1),
        scale=0.05,
    )


class TestRunConfig:
    def test_hash_is_stable(self):
        a = RunConfig(dataset="hv15r", nprocs=4)
        b = RunConfig(dataset="hv15r", nprocs=4)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 16

    def test_hash_changes_with_every_axis(self):
        base = RunConfig(dataset="hv15r")
        variants = [
            base.with_updates(dataset="queen"),
            base.with_updates(algorithm="2d"),
            base.with_updates(strategy="random"),
            base.with_updates(nprocs=4),
            base.with_updates(block_split=64),
            base.with_updates(seed=7),
            base.with_updates(scale=0.25),
            base.with_updates(layers=2),
            base.with_updates(threads=4),
            base.with_updates(cost_model="laptop"),
            base.with_updates(workload="amg-restriction"),
            base.with_updates(amg_phase="rta"),
            base.with_updates(mis_seed=3),
            base.with_updates(right_algorithm="1d"),
            base.with_updates(workload="bc", bc_sources=8),
            base.with_updates(workload="bc", bc_sources=8, bc_batch=4),
            base.with_updates(workload="bc", bc_sources=8, bc_source_stride=2),
            base.with_updates(workload="bc", bc_sources=8, bc_directed=True),
        ]
        hashes = {base.config_hash()} | {v.config_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_matrix_file_contents_enter_the_hash(self, tmp_path):
        """Regenerating a --matrix file must invalidate its cached records."""
        import time

        path = tmp_path / "input.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
        config = RunConfig(dataset="custom", matrix=str(path))
        first = config.config_hash()
        assert first == config.config_hash()  # stable while the file is untouched
        time.sleep(0.01)
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
        assert config.config_hash() != first

    @pytest.mark.parametrize(
        "field,value",
        [("nprocs", 0), ("nprocs", -2), ("block_split", 0),
         ("scale", 0.0), ("scale", -0.1), ("scale", float("nan"))],
    )
    def test_non_positive_sizes_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(dataset="hv15r", **{field: value})

    def test_dict_round_trip(self):
        config = RunConfig(dataset="queen", algorithm="3d", layers=4, threads=2)
        assert RunConfig.from_dict(config.as_dict()) == config

    def test_grid_expansion_is_deterministic_and_complete(self):
        grid = _small_grid()
        configs = grid.expand()
        assert len(configs) == len(grid) == 8
        assert configs == grid.expand()
        assert len({c.config_hash() for c in configs}) == 8


class TestRunRecord:
    def test_json_round_trip(self):
        record = execute_config(
            RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=0.05)
        )
        restored = RunRecord.from_json_line(record.to_json_line())
        assert restored == record

    def test_record_fields_populated(self):
        record = execute_config(
            RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=0.05)
        )
        assert record.algorithm == "1d-sparsity-aware"
        assert record.communication_volume > 0
        assert record.message_count > 0
        assert record.conserved
        assert record.output_nnz > 0
        assert len(record.per_rank_comm) == 4
        assert record.per_rank_total == pytest.approx(
            [c + p + o for c, p, o in zip(
                record.per_rank_comm, record.per_rank_comp, record.per_rank_other
            )]
        )
        assert record.elapsed_time == pytest.approx(
            record.comm_time + record.comp_time + record.other_time
        )


class TestEngine:
    def test_parallel_equals_serial_bit_identical(self, tmp_path):
        grid = _small_grid()
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")

        serial = run_grid(grid, workers=0, store=serial_store)
        parallel = run_grid(grid, workers=2, store=parallel_store)

        assert serial.stats.executed == 8
        assert parallel.stats.executed == 8
        assert [r.to_json_line() for r in serial.records] == [
            r.to_json_line() for r in parallel.records
        ]
        # The persisted JSONL files are byte-identical too.
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "parallel.jsonl"
        ).read_bytes()

    def test_identical_grid_and_seeds_identical_jsonl(self, tmp_path):
        grid = _small_grid()
        for name in ("first.jsonl", "second.jsonl"):
            run_grid(grid, workers=0, store=ResultStore(tmp_path / name))
        assert (tmp_path / "first.jsonl").read_bytes() == (
            tmp_path / "second.jsonl"
        ).read_bytes()

    def test_cache_hit_skips_execution(self, tmp_path):
        grid = _small_grid()
        store = ResultStore(tmp_path / "records.jsonl")
        first = run_grid(grid, workers=0, store=store)
        assert first.stats.cached == 0 and first.stats.executed == 8
        before = (tmp_path / "records.jsonl").read_bytes()

        second = run_grid(grid, workers=0, store=store)
        assert second.stats.cached == 8 and second.stats.executed == 0
        # Nothing re-ran, nothing was appended, records identical.
        assert (tmp_path / "records.jsonl").read_bytes() == before
        assert [r.to_json_line() for r in first.records] == [
            r.to_json_line() for r in second.records
        ]

    def test_partial_store_resumes_only_missing(self, tmp_path):
        configs = _small_grid().expand()
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(configs[:3], workers=0, store=store)

        result = run_grid(configs, workers=0, store=store)
        assert result.stats.cached == 3
        assert result.stats.executed == 5
        # Grid order is preserved even with cached rows interleaved.
        assert [r.config for r in result.records] == configs

    def test_force_reexecutes(self, tmp_path):
        configs = _small_grid().expand()[:2]
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(configs, workers=0, store=store)
        forced = run_grid(configs, workers=0, store=store, force=True)
        assert forced.stats.executed == 2
        # Duplicate rows exist; the loaded index keeps the newest.
        assert len(store.load_records()) == 4
        assert len(store.load()) == 2

    def test_records_persist_incrementally(self, tmp_path, monkeypatch):
        """An aborted sweep must keep its finished records (resumability)."""
        import repro.experiments.engine as engine_mod

        configs = _small_grid().expand()[:3]
        store = ResultStore(tmp_path / "records.jsonl")
        calls = {"n": 0}
        real_execute = engine_mod.execute_config

        def flaky(config, **kwargs):
            if calls["n"] == 2:
                raise RuntimeError("simulated crash mid-sweep")
            calls["n"] += 1
            return real_execute(config, **kwargs)

        monkeypatch.setattr(engine_mod, "execute_config", flaky)
        with pytest.raises(RuntimeError):
            run_grid(configs, workers=0, store=store)
        # The two records that finished before the crash were persisted …
        assert len(store.load()) == 2
        monkeypatch.setattr(engine_mod, "execute_config", real_execute)
        # … so the re-run only executes the remainder.
        result = run_grid(configs, workers=0, store=store)
        assert result.stats.cached == 2 and result.stats.executed == 1

    def test_unparseable_store_rows_are_misses(self, tmp_path):
        configs = _small_grid().expand()[:2]
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(configs, workers=0, store=store)
        # Simulate a torn write and a row from an incompatible schema.
        with store.path.open("a") as fh:
            fh.write('{"config_hash": "deadbeef"}\n')   # missing fields
            fh.write('{"config_hash": "tru\n')          # torn line
        result = run_grid(configs, workers=0, store=store)
        assert result.stats.cached == 2 and result.stats.executed == 0

    def test_no_store_executes_everything(self):
        configs = _small_grid().expand()[:2]
        result = run_grid(configs, workers=0)
        assert result.stats.executed == 2
        assert all(isinstance(r, RunRecord) for r in result.records)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_grid_with_zero_processes_rejected_before_running(self, tmp_path, workers):
        grid = ExperimentGrid(datasets=("hv15r",), process_counts=(4, 0), scale=0.1)
        store = tmp_path / "records.jsonl"
        with pytest.raises(ValueError, match="nprocs must be >= 1"):
            run_grid(grid, workers=workers, store=str(store))
        assert not store.exists() or store.read_text() == ""

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError):
            execute_config(RunConfig(dataset="hv15r", cost_model="abacus"))

    def test_override_records_carry_no_cache_key(self):
        """matrix=/cost_model= overrides make the config a lie about what
        ran, so the record must never be servable as a cache hit."""
        from repro.matrices.generators import banded

        config = RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=0.05)
        A = banded(100, 5, symmetric=True, seed=9)
        overridden = execute_config(config, matrix=A)
        assert overridden.config_hash == ""
        assert overridden.config_hash != config.config_hash()
        genuine = execute_config(config)
        assert genuine.config_hash == config.config_hash()


class TestDatasetDiskCache:
    def test_cache_round_trip_is_exact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path))
        fresh = load_dataset("hv15r", scale=0.05)
        assert dataset_cache_path("hv15r", 0.05, None).is_file()
        cached = load_dataset("hv15r", scale=0.05)
        assert cached.shape == fresh.shape
        np.testing.assert_array_equal(cached.indptr, fresh.indptr)
        np.testing.assert_array_equal(cached.indices, fresh.indices)
        np.testing.assert_array_equal(cached.data, fresh.data)

    def test_env_toggle_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(CACHE_ENV, "0")
        load_dataset("hv15r", scale=0.05)
        assert not any(tmp_path.iterdir())

    def test_use_cache_argument_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path))
        load_dataset("hv15r", scale=0.05, use_cache=False)
        assert not any(tmp_path.iterdir())

    def test_torn_cache_entry_regenerates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path))
        path = dataset_cache_path("hv15r", 0.05, None)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        matrix = load_dataset("hv15r", scale=0.05)
        assert matrix.nnz > 0


class TestSquaringRegressions:
    """Regression tests for the driver bugs fixed with this engine."""

    def test_outer_product_honours_partition(self):
        from repro.apps.squaring import run_squaring
        from repro.matrices.generators import community_graph
        from repro.sparse import local_spgemm

        A = community_graph(200, 5, 10, shuffle=True, seed=2)
        ref = local_spgemm(A, A)
        none_run = run_squaring(A, algorithm="outer-product", strategy="none", nprocs=4)
        metis_run = run_squaring(
            A, algorithm="outer-product", strategy="metis", nprocs=4, seed=0,
            verify_against=ref,
        )
        # Before the fix the metis partition was silently ignored, so both
        # strategies produced identical communication.
        assert (
            metis_run.result.communication_volume
            != none_run.result.communication_volume
        )

    def test_improved_block_row_honours_partition(self):
        from repro.apps.squaring import run_squaring
        from repro.matrices.generators import community_graph
        from repro.sparse import local_spgemm

        A = community_graph(200, 5, 10, shuffle=True, seed=2)
        ref = local_spgemm(A, A)
        none_run = run_squaring(
            A, algorithm="1d-improved-block-row", strategy="none", nprocs=4
        )
        metis_run = run_squaring(
            A, algorithm="1d-improved-block-row", strategy="metis", nprocs=4, seed=0,
            verify_against=ref,
        )
        assert (
            metis_run.result.communication_volume
            != none_run.result.communication_volume
        )

    def test_block_row_partition_result_correct(self):
        from repro.apps.squaring import run_squaring
        from repro.matrices.generators import community_graph
        from repro.sparse import local_spgemm

        A = community_graph(150, 4, 8, shuffle=True, seed=5)
        ref = local_spgemm(A, A)
        for algorithm in ("1d-naive-block-row", "1d-improved-block-row"):
            run_squaring(
                A, algorithm=algorithm, strategy="metis", nprocs=4, seed=0,
                verify_against=ref,
            )

    def test_permutation_cost_is_modelled_and_deterministic(self):
        from repro.apps.squaring import run_squaring
        from repro.matrices.generators import banded

        A = banded(150, 6, symmetric=True, seed=1)
        first = run_squaring(A, algorithm="1d", strategy="random", nprocs=4, seed=0)
        second = run_squaring(A, algorithm="1d", strategy="random", nprocs=4, seed=0)
        # Deterministic: beta · bytes, no wall-clock mixed in.
        assert first.permutation_seconds == second.permutation_seconds
        assert first.permutation_seconds == pytest.approx(
            PERLMUTTER.beta * first.permutation_bytes
        )
        # Measured wall-clock lives in its own field.
        assert first.permutation_wall_seconds >= 0.0
        assert first.total_time_with_permutation == pytest.approx(
            first.spgemm_time + first.permutation_seconds
        )

    def test_config_sweep_rows_have_no_private_keys(self):
        from repro.analysis import config_sweep
        from repro.matrices.generators import banded

        A = banded(150, 6, symmetric=True, seed=3)
        points = config_sweep(A, total_cores=16, min_processes=4)
        assert points
        for point in points:
            assert point.processes * point.threads == 16
            assert point.elapsed_time >= 0
            row = point.as_row()
            assert not any(key.startswith("_") for key in row)

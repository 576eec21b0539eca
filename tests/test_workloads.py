"""Tests for the multi-workload experiment engine (AMG restriction + BC).

Covers the PR 3 acceptance surface: JSONL round-trips of the
workload-specific record fields, config-hash discrimination across workload
parameters, cache-hit/resume behaviour per workload, and exact equality of
engine records with the direct application calls the benchmarks used before
the migration.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentGrid,
    ResultStore,
    RunConfig,
    RunRecord,
    execute_config,
    run_grid,
    workload_names,
)

SCALE = 0.1


def _amg_config(**overrides):
    base = dict(
        dataset="queen",
        workload="amg-restriction",
        algorithm="1d",
        nprocs=8,
        scale=SCALE,
        amg_phase="rtar",
    )
    base.update(overrides)
    return RunConfig(**base)


def _bc_config(**overrides):
    base = dict(
        dataset="hv15r",
        workload="bc",
        algorithm="1d",
        nprocs=4,
        scale=SCALE,
        bc_sources=8,
        bc_batch=8,
        bc_source_stride=4,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestWorkloadRegistry:
    def test_all_workloads_registered(self):
        assert set(workload_names()) == {
            "squaring", "chained-squaring", "amg-restriction", "bc",
            "triangles", "mcl",
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            execute_config(RunConfig(dataset="hv15r", workload="tensor", scale=SCALE))

    def test_unknown_amg_phase_rejected(self):
        with pytest.raises(ValueError, match="amg_phase"):
            execute_config(_amg_config(amg_phase="rt"))

    def test_bc_requires_sources(self):
        with pytest.raises(ValueError, match="bc_sources"):
            execute_config(_bc_config(bc_sources=None, bc_source_stride=None))

    def test_bc_stride_bounds_checked(self):
        with pytest.raises(ValueError, match="exceeds"):
            execute_config(_bc_config(bc_sources=10**6))


class TestHashDiscrimination:
    def test_workload_axis_enters_the_hash(self):
        base = RunConfig(dataset="hv15r", scale=SCALE)
        hashes = {
            base.config_hash(),
            base.with_updates(workload="amg-restriction").config_hash(),
            base.with_updates(workload="bc", bc_sources=8).config_hash(),
        }
        assert len(hashes) == 3

    def test_amg_params_enter_the_hash(self):
        base = _amg_config()
        variants = [
            base.with_updates(amg_phase="rta"),
            base.with_updates(mis_seed=7),
            base.with_updates(right_algorithm="1d"),
        ]
        hashes = {base.config_hash()} | {v.config_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_bc_params_enter_the_hash(self):
        base = _bc_config()
        variants = [
            base.with_updates(bc_sources=4),
            base.with_updates(bc_batch=4),
            base.with_updates(bc_source_stride=2),
            base.with_updates(bc_directed=True),
        ]
        hashes = {base.config_hash()} | {v.config_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_grid_workload_axis_expands(self):
        grid = ExperimentGrid(
            datasets=("hv15r",),
            workloads=("squaring", "bc"),
            process_counts=(4,),
            scale=SCALE,
            bc_sources=8,
            bc_source_stride=4,
        )
        configs = grid.expand()
        assert len(configs) == len(grid) == 2
        assert [c.workload for c in configs] == ["squaring", "bc"]
        assert len({c.config_hash() for c in configs}) == 2


class TestResidentAndChainAxes:
    """PR-4 config axes: hash coverage + back-compatible hash elision."""

    def test_new_axes_elide_from_hash_at_default(self):
        """Configs predating the resident/square_k axes keep their hashes.

        Pinned against a literal hash captured from the PR-3 tree: if this
        changes, every cached record store silently invalidates.
        """
        config = RunConfig(
            dataset="eukarya", algorithm="1d", strategy="metis",
            nprocs=16, block_split=32, scale=0.25,
        )
        assert config.config_hash() == "029a01b08a1a8790"
        assert "resident" not in config.canonical_json()
        assert "square_k" not in config.canonical_json()

    def test_non_default_values_enter_the_hash(self):
        base = _bc_config()
        assert base.with_updates(resident=True).config_hash() != base.config_hash()
        chain = RunConfig(
            dataset="hv15r", workload="chained-squaring", scale=SCALE, square_k=2
        )
        assert chain.config_hash() != chain.with_updates(square_k=3).config_hash()
        assert '"resident":true' in base.with_updates(resident=True).canonical_json()

    def test_round_trip_preserves_new_fields(self):
        config = _bc_config(resident=True)
        assert RunConfig.from_dict(config.as_dict()) == config
        chain = RunConfig(
            dataset="hv15r", workload="chained-squaring", scale=SCALE, square_k=2
        )
        assert RunConfig.from_dict(chain.as_dict()) == chain

    def test_old_record_rows_parse_without_new_fields(self):
        """A PR-3-era JSONL row (no resident/square_k keys) still loads."""
        old = RunConfig(dataset="hv15r", scale=SCALE)
        data = old.as_dict()
        del data["resident"]
        del data["square_k"]
        parsed = RunConfig.from_dict(data)
        assert parsed == old
        assert parsed.config_hash() == old.config_hash()

    def test_grid_applies_new_axes_per_workload(self):
        """resident/square_k land only on the workloads that read them."""
        grid = ExperimentGrid(
            datasets=("hv15r",),
            workloads=("squaring", "chained-squaring", "bc"),
            process_counts=(4,),
            scale=SCALE,
            square_k=2,
            resident=True,
            bc_sources=8,
            bc_source_stride=4,
        )
        by_workload = {c.workload: c for c in grid.expand()}
        assert by_workload["chained-squaring"].square_k == 2
        assert by_workload["chained-squaring"].resident is False
        assert by_workload["bc"].resident is True
        assert by_workload["bc"].square_k is None
        assert by_workload["squaring"].square_k is None
        assert by_workload["squaring"].resident is False

    def test_mixed_grid_leaves_unaffected_hashes_stable(self):
        """--square-k on a mixed grid must not perturb squaring hashes.

        Otherwise adding chained-squaring to an existing sweep would cache-
        miss every squaring config in it.
        """
        plain = ExperimentGrid(
            datasets=("hv15r",), workloads=("squaring",),
            process_counts=(4,), scale=SCALE,
        )
        mixed = ExperimentGrid(
            datasets=("hv15r",), workloads=("squaring", "chained-squaring"),
            process_counts=(4,), scale=SCALE, square_k=2, resident=True,
        )
        (plain_squaring,) = plain.expand()
        mixed_squaring = [
            c for c in mixed.expand() if c.workload == "squaring"
        ][0]
        assert mixed_squaring.config_hash() == plain_squaring.config_hash()


class TestChainedSquaringWorkload:
    def test_record_round_trip_and_fields(self):
        config = RunConfig(
            dataset="hv15r", workload="chained-squaring", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE, square_k=2,
        )
        record = execute_config(config)
        assert record.workload == "chained-squaring"
        assert record.chain is not None
        assert record.chain.k == 2
        assert len(record.chain.levels) == 2
        assert record.chain.final_nnz == record.output_nnz
        # The chain's topline counters are the sums of its levels.
        assert record.communication_volume == sum(
            lvl.volume for lvl in record.chain.levels
        )
        assert record.message_count == sum(
            lvl.messages for lvl in record.chain.levels
        )
        assert record.conserved
        round_tripped = RunRecord.from_json_line(record.to_json_line())
        assert round_tripped.to_json_line() == record.to_json_line()
        assert round_tripped.chain.levels[1].output_nnz == \
            record.chain.levels[1].output_nnz

    def test_requires_square_k(self):
        config = RunConfig(
            dataset="hv15r", workload="chained-squaring", nprocs=4, scale=SCALE
        )
        with pytest.raises(ValueError, match="square_k"):
            execute_config(config)

    def test_matches_direct_chain_call(self):
        from repro.apps.squaring import run_chained_squaring
        from repro.matrices import load_dataset

        config = RunConfig(
            dataset="hv15r", workload="chained-squaring", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE, square_k=2,
        )
        record = execute_config(config)
        A = load_dataset("hv15r", scale=SCALE)
        direct = run_chained_squaring(
            A, k=2, algorithm="1d", nprocs=4, block_split=16
        )
        assert record.elapsed_time == direct.elapsed_time
        assert record.communication_volume == direct.communication_volume
        assert record.message_count == direct.message_count
        for rec_level, direct_level in zip(record.chain.levels, direct.results):
            assert rec_level.time == direct_level.elapsed_time
            assert rec_level.volume == direct_level.communication_volume

    def test_cache_hit_round_trip(self, tmp_path):
        config = RunConfig(
            dataset="hv15r", workload="chained-squaring", algorithm="1d",
            nprocs=4, block_split=16, scale=SCALE, square_k=2,
        )
        store = tmp_path / "chain.jsonl"
        first = run_grid([config], store=str(store))
        assert first.stats.executed == 1
        second = run_grid([config], store=str(store))
        assert second.stats.cached == 1
        assert second.records[0].to_json_line() == first.records[0].to_json_line()


class TestResidentBCWorkload:
    def test_resident_record_differs_only_in_setup_accounting(self):
        legacy = execute_config(_bc_config())
        resident = execute_config(_bc_config(resident=True))
        assert legacy.config_hash != resident.config_hash
        # The hoisted run charges strictly less modelled time …
        assert resident.elapsed_time < legacy.elapsed_time
        # … records the one-off setup as a dedicated series entry …
        setup = [it for it in resident.bc.iterations if it.phase == "setup"]
        assert len(setup) == 1
        assert not any(it.phase == "setup" for it in legacy.bc.iterations)
        # … and leaves the per-iteration frontier series untouched.
        legacy_series = [
            (it.phase, it.iteration, it.frontier_nnz)
            for it in legacy.bc.iterations
        ]
        resident_series = [
            (it.phase, it.iteration, it.frontier_nnz)
            for it in resident.bc.iterations
            if it.phase != "setup"
        ]
        assert legacy_series == resident_series
        assert resident.conserved and legacy.conserved

    def test_setup_fields_reconcile_and_stay_off_legacy_rows(self):
        legacy = execute_config(_bc_config())
        resident = execute_config(_bc_config(resident=True))
        # Typed record stays self-consistent: setup + forward + backward
        # reconciles with the topline counters.
        assert resident.bc.setup_time > 0.0
        assert resident.bc.setup_time + resident.bc.forward_time + \
            resident.bc.backward_time == pytest.approx(resident.elapsed_time)
        assert resident.bc.setup_volume + resident.bc.forward_volume + \
            resident.bc.backward_volume == resident.communication_volume
        # Legacy JSONL rows carry no setup keys (byte-compatible with PR3).
        import json

        legacy_row = json.loads(legacy.to_json_line())
        assert "setup_time" not in legacy_row["bc"]
        resident_row = json.loads(resident.to_json_line())
        assert resident_row["bc"]["setup_volume"] == resident.bc.setup_volume
        # And the setup fields survive the JSON round trip.
        assert RunRecord.from_json_line(
            resident.to_json_line()
        ).bc.setup_time == resident.bc.setup_time


class TestWorkloadRecords:
    def test_amg_record_round_trip_and_fields(self):
        record = execute_config(_amg_config())
        assert record.workload == "amg-restriction"
        assert record.bc is None
        amg = record.amg
        assert amg is not None
        assert amg.r_nnz == amg.n_fine  # one nonzero per row (Table III)
        assert amg.n_coarse < amg.n_fine
        assert amg.coarsening_factor == pytest.approx(amg.n_fine / amg.n_coarse)
        assert amg.left_volume > 0 and amg.right_volume > 0
        assert record.communication_volume == amg.left_volume + amg.right_volume
        assert record.elapsed_time == pytest.approx(amg.left_time + amg.right_time)
        assert record.output_nnz == amg.coarse_nnz > 0
        assert len(record.per_rank_comm) == record.config.nprocs
        assert record.conserved
        restored = RunRecord.from_json_line(record.to_json_line())
        assert restored == record

    def test_amg_rta_phase_runs_left_only(self):
        record = execute_config(_amg_config(amg_phase="rta"))
        assert record.amg.right_time == 0.0
        assert record.amg.right_volume == 0
        assert record.amg.coarse_nnz == 0
        assert record.communication_volume == record.amg.left_volume
        assert record.output_nnz == record.amg.rta_nnz
        assert "+" not in record.algorithm

    def test_bc_record_round_trip_and_fields(self):
        record = execute_config(_bc_config())
        assert record.workload == "bc"
        assert record.amg is None
        bc = record.bc
        assert bc is not None
        assert bc.sources == 8 and bc.batches == 1
        assert bc.iterations, "expected at least one BFS iteration"
        phases = {it.phase for it in bc.iterations}
        assert phases == {"forward", "backward"}
        assert record.communication_volume == bc.forward_volume + bc.backward_volume
        assert record.communication_volume == sum(it.volume for it in bc.iterations)
        assert record.elapsed_time == pytest.approx(bc.forward_time + bc.backward_time)
        assert record.message_count == sum(it.messages for it in bc.iterations)
        assert record.conserved
        restored = RunRecord.from_json_line(record.to_json_line())
        assert restored == record

    def test_squaring_record_has_no_workload_extras(self):
        record = execute_config(
            RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=SCALE)
        )
        assert record.workload == "squaring"
        assert record.amg is None and record.bc is None
        assert "amg" not in record.to_dict() and "bc" not in record.to_dict()


class TestEngineEqualsDirectCalls:
    """The migrated benchmarks' acceptance criterion: engine records match
    the pre-migration direct application calls on every volume/message."""

    def test_amg_matches_direct_galerkin_calls(self):
        from repro.apps.amg import build_restriction, left_multiplication, right_multiplication
        from repro.matrices import load_dataset

        config = _amg_config()
        record = execute_config(config)
        A = load_dataset("queen", scale=SCALE)
        rest = build_restriction(A, seed=0)
        left = left_multiplication(
            rest.R, A, algorithm="1d", nprocs=config.nprocs, block_split=config.block_split
        )
        right = right_multiplication(
            left.C, rest.R, algorithm="outer-product", nprocs=config.nprocs
        )
        assert record.amg.left_volume == left.communication_volume
        assert record.amg.left_messages == left.message_count
        assert record.amg.left_time == pytest.approx(left.elapsed_time)
        assert record.amg.right_volume == right.communication_volume
        assert record.amg.right_messages == right.message_count
        assert record.amg.right_time == pytest.approx(right.elapsed_time)
        assert record.amg.rta_nnz == left.C.nnz
        assert record.amg.coarse_nnz == right.C.nnz

    def test_bc_matches_direct_brandes_call(self):
        from repro.apps.bc import batched_betweenness_centrality
        from repro.matrices import load_dataset

        config = _bc_config()
        record = execute_config(config)
        A = load_dataset("hv15r", scale=SCALE)
        direct = batched_betweenness_centrality(
            A, sources=list(range(0, 32, 4)), batch_size=8, algorithm="1d", nprocs=4
        )
        assert [it.volume for it in record.bc.iterations] == [
            r.communication_volume for r in direct.iterations
        ]
        assert [it.messages for it in record.bc.iterations] == [
            r.message_count for r in direct.iterations
        ]
        assert record.elapsed_time == pytest.approx(direct.total_time)
        assert record.communication_volume == direct.total_volume


class TestPerWorkloadCaching:
    def _mixed_configs(self):
        return [
            RunConfig(dataset="hv15r", nprocs=4, block_split=16, scale=SCALE),
            _amg_config(),
            _bc_config(),
        ]

    def test_cache_hit_skips_every_workload(self, tmp_path):
        store = ResultStore(tmp_path / "records.jsonl")
        first = run_grid(self._mixed_configs(), workers=0, store=store)
        assert first.stats.executed == 3
        before = (tmp_path / "records.jsonl").read_bytes()
        second = run_grid(self._mixed_configs(), workers=0, store=store)
        assert second.stats.cached == 3 and second.stats.executed == 0
        assert (tmp_path / "records.jsonl").read_bytes() == before
        assert [r.to_json_line() for r in first.records] == [
            r.to_json_line() for r in second.records
        ]
        assert [r.workload for r in second.records] == ["squaring", "amg-restriction", "bc"]

    def test_partial_store_resumes_per_workload(self, tmp_path):
        configs = self._mixed_configs()
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(configs[:1], workers=0, store=store)       # squaring only
        result = run_grid(configs, workers=0, store=store)  # amg + bc resume
        assert result.stats.cached == 1 and result.stats.executed == 2
        assert [r.config for r in result.records] == configs

    def test_serial_equals_parallel_for_mixed_workloads(self, tmp_path):
        configs = self._mixed_configs()
        serial = run_grid(configs, workers=0, store=ResultStore(tmp_path / "s.jsonl"))
        parallel = run_grid(configs, workers=2, store=ResultStore(tmp_path / "p.jsonl"))
        assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "p.jsonl").read_bytes()
        assert [r.to_json_line() for r in serial.records] == [
            r.to_json_line() for r in parallel.records
        ]

"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.matrices import write_matrix_market
from repro.matrices.generators import banded


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_square_defaults(self):
        args = build_parser().parse_args(["square"])
        assert args.command == "square"
        assert args.algorithm == "1d"
        assert args.strategy == "none"
        assert args.nprocs == 16

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["square", "--dataset", "unknown42"])

    @pytest.mark.parametrize(
        "flag,value", [("--nprocs", "0"), ("--nprocs", "-4"),
                       ("--scale", "0"), ("--scale", "-0.5")],
    )
    def test_input_arguments_reject_non_positive(self, capsys, flag, value):
        # Rejected by argparse (exit 2) before any dataset loads, not a
        # ZeroDivisionError from the distribution split.
        with pytest.raises(SystemExit) as exc:
            main(["square", "--dataset", "hv15r", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "must be positive" in err

    def test_bc_arguments(self):
        args = build_parser().parse_args(
            ["bc", "--dataset", "eukarya", "--sources", "8", "--batch-size", "4"]
        )
        assert args.sources == 8
        assert args.batch_size == 4


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("queen", "eukarya", "hv15r"):
            assert name in out

    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "1d-sparsity-aware" in out
        assert "2d-summa" in out

    def test_square_runs(self, capsys):
        code = main(
            ["square", "--dataset", "hv15r", "--scale", "0.1", "--nprocs", "4",
             "--block-split", "16", "--breakdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "squaring" in out
        assert "CV/memA" in out
        assert "rank" in out  # breakdown table requested

    def test_estimate_runs(self, capsys):
        assert main(["estimate", "--dataset", "eukarya", "--scale", "0.05", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "CV/memA" in out
        assert "partition" in out

    def test_galerkin_runs(self, capsys):
        assert main(["galerkin", "--dataset", "queen", "--scale", "0.05", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "RtA" in out and "coarse operator" in out

    def test_bc_runs(self, capsys):
        assert main(
            ["bc", "--dataset", "hv15r", "--scale", "0.05", "--nprocs", "4",
             "--sources", "4", "--batch-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "forward search" in out
        assert "top-10" in out

    def test_triangles_runs(self, capsys):
        assert main(
            ["triangles", "--dataset", "eukarya", "--scale", "0.1",
             "--nprocs", "4", "--block-split", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "triangle counting" in out
        assert "match" in out

    def test_triangles_early_mask(self, capsys):
        assert main(
            ["triangles", "--dataset", "eukarya", "--scale", "0.1",
             "--nprocs", "4", "--mask-mode", "early"]
        ) == 0
        assert "early" in capsys.readouterr().out

    def test_mcl_runs(self, capsys):
        assert main(
            ["mcl", "--dataset", "eukarya", "--scale", "0.1", "--nprocs", "4",
             "--block-split", "16", "--max-iters", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "MCL" in out
        assert "converged" in out
        assert "clusters" in out

    def test_matrix_market_input(self, tmp_path, capsys):
        path = tmp_path / "input.mtx"
        write_matrix_market(path, banded(60, 4, symmetric=True, seed=1))
        assert main(["square", "--matrix", str(path), "--nprocs", "2"]) == 0
        assert "squaring" in capsys.readouterr().out

    def test_matrix_input_labelled_by_file_stem(self, tmp_path, capsys):
        path = tmp_path / "mycustom.mtx"
        write_matrix_market(path, banded(60, 4, symmetric=True, seed=1))
        assert main(["estimate", "--matrix", str(path), "--nprocs", "2"]) == 0
        out = capsys.readouterr().out
        # The report must name the file, not the default --dataset (hv15r).
        assert "mycustom" in out
        assert "hv15r" not in out

    def test_square_layers_forwarded(self, capsys):
        code = main(
            ["square", "--dataset", "hv15r", "--scale", "0.05", "--nprocs", "8",
             "--algorithm", "3d", "--layers", "2", "--strategy", "random"]
        )
        assert code == 0
        assert "squaring" in capsys.readouterr().out

    def test_sweep_runs_and_persists_jsonl(self, tmp_path, capsys):
        records = tmp_path / "runs.jsonl"
        argv = [
            "sweep", "--datasets", "hv15r", "--algorithms", "1d",
            "--nprocs", "2,4", "--block-splits", "16", "--scale", "0.05",
            "--records", str(records),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "2 executed" in out
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 2
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached, 0 executed" in out
        assert len(records.read_text().strip().splitlines()) == 2

    def test_sweep_rejects_unknown_dataset(self, capsys):
        assert main(["sweep", "--datasets", "nope42"]) == 2

    def test_sweep_rejects_unknown_algorithm_and_strategy(self, capsys):
        # Axis typos must exit cleanly up front, not crash a worker mid-grid.
        assert main(["sweep", "--datasets", "hv15r", "--algorithms", "1d,bogus"]) == 2
        assert main(["sweep", "--datasets", "hv15r", "--strategies", "zodiac"]) == 2

    def test_sweep_rejects_non_positive_axes(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--nprocs", "0,4"]) == 2
        assert "nprocs must be >= 1: 0" in capsys.readouterr().err
        assert main(["sweep", "--datasets", "hv15r", "--block-splits", "-1"]) == 2
        assert "block_split must be >= 1: -1" in capsys.readouterr().err
        assert main(["sweep", "--datasets", "hv15r", "--scale", "0"]) == 2
        assert "scale must be positive: 0.0" in capsys.readouterr().err

    def test_sweep_rejects_unknown_workload(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--workloads", "tensor"]) == 2
        err = capsys.readouterr().err
        # The message lists the valid set dynamically from the registry, so
        # it can never go stale when a workload is added.
        from repro.experiments import workload_names

        for name in workload_names():
            assert name in err

    def test_sweep_triangles_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "triangles", "--datasets", "eukarya",
             "--nprocs", "4", "--scale", "0.1", "--block-splits", "16",
             "--mask-mode", "early"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triangles" in out and "1 executed" in out

    def test_sweep_triangles_early_mask_needs_1d(self, capsys):
        assert main(
            ["sweep", "--workloads", "triangles", "--datasets", "eukarya",
             "--algorithms", "2d", "--mask-mode", "early"]
        ) == 2

    def test_sweep_mcl_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--nprocs", "4", "--scale", "0.1", "--block-splits", "16",
             "--mcl-max-iters", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mcl" in out and "1 executed" in out

    def test_sweep_mcl_rejects_bad_axes(self, capsys):
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--algorithms", "2d"]
        ) == 2
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--mcl-inflation", "-1"]
        ) == 2
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--mcl-max-iters", "0"]
        ) == 2

    def test_sweep_bc_requires_sources(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--workloads", "bc"]) == 2

    def test_sweep_bc_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "bc", "--datasets", "hv15r", "--nprocs", "4",
             "--scale", "0.05", "--bc-sources", "4", "--bc-batch", "4",
             "--bc-stride", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bc" in out and "1 executed" in out

    def test_sweep_local_algorithm_only_for_bc(self, capsys):
        # "local" is a bc-only execution mode, not a distributed algorithm.
        assert main(["sweep", "--datasets", "hv15r", "--algorithms", "local"]) == 2
        code = main(
            ["sweep", "--workloads", "bc", "--datasets", "hv15r", "--nprocs", "4",
             "--algorithms", "local", "--scale", "0.05", "--bc-sources", "4",
             "--bc-stride", "2"]
        )
        assert code == 0

    def test_sweep_amg_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "amg-restriction", "--datasets", "queen",
             "--nprocs", "8", "--scale", "0.05", "--amg-phase", "rta"]
        )
        assert code == 0
        assert "amg-restriction" in capsys.readouterr().out

"""Command-line interface: run the paper's experiments from the shell.

Usage (after ``pip install -e .``)::

    python -m repro square    --dataset hv15r --algorithm 1d --nprocs 16
    python -m repro estimate  --dataset eukarya --nprocs 16
    python -m repro galerkin  --dataset queen --nprocs 16
    python -m repro bc        --dataset eukarya --nprocs 8 --sources 32
    python -m repro triangles --dataset eukarya --nprocs 16 --mask-mode early
    python -m repro mcl       --dataset eukarya --nprocs 16 --inflation 2.0
    python -m repro sweep     --datasets hv15r,eukarya --algorithms 1d,2d \
                              --nprocs 4,16,64 --workers 4 --records runs.jsonl
    python -m repro sweep     --workloads bc --datasets eukarya --bc-sources 16
    python -m repro serve     --socket /tmp/repro.sock --records runs.jsonl
    python -m repro datasets

Every subcommand accepts either one of the built-in Table II analogues
(``--dataset`` + ``--scale``) or a MatrixMarket file (``--matrix path.mtx``),
so the same harness runs on the paper's real inputs when they are available.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .analysis import breakdown_table, format_table, mebibytes, seconds
from .apps.amg import galerkin_product
from .apps.bc import batched_betweenness_centrality
from .apps.squaring import PERMUTATION_STRATEGIES, run_squaring
from .core import available_algorithms, should_partition
from .experiments import (
    COST_MODELS,
    ExperimentGrid,
    JobRejected,
    run_grid,
    workload_names,
)
from .matrices import dataset_names, load_dataset, matrix_stats, read_matrix_market
from .runtime import PERLMUTTER, available_backends
from .sparse import CSCMatrix, KERNEL_VARIANTS, set_kernel_variant

__all__ = ["main", "build_parser"]


def _load_input(args) -> CSCMatrix:
    if getattr(args, "matrix", None):
        return read_matrix_market(args.matrix)
    return load_dataset(args.dataset, scale=args.scale)


def _input_label(args) -> str:
    """Dataset label for reports: the file stem when ``--matrix`` is given."""
    if getattr(args, "matrix", None):
        return pathlib.Path(args.matrix).stem
    return args.dataset


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel", default=None, metavar="VARIANT",
        help="local-kernel implementation variant "
             f"({', '.join(KERNEL_VARIANTS)}); results and modelled "
             "counters are identical across variants — only host "
             "wall-clock changes (default: the REPRO_KERNEL env var, "
             "else auto)",
    )


def _positive(cast):
    """An argparse ``type`` that rejects values ≤ 0 (argparse exits 2)."""

    def parse(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text}")
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = cast.__name__
    return parse


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="hv15r", choices=dataset_names(),
        help="built-in synthetic analogue of a Table II matrix",
    )
    parser.add_argument(
        "--matrix", default=None,
        help="path to a MatrixMarket file (overrides --dataset)",
    )
    parser.add_argument("--scale", type=_positive(float), default=0.5,
                        help="dataset scale factor")
    parser.add_argument("--nprocs", type=_positive(int), default=16,
                        help="simulated process count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparsity-aware distributed-memory SpGEMM (SC 2024) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_square = sub.add_parser("square", help="squaring benchmark (Figs 4, 5, 9)")
    _add_input_arguments(p_square)
    p_square.add_argument(
        "--algorithm", default="1d", choices=sorted({"1d", "2d", "3d", "outer-product",
                                                     "1d-naive-block-row",
                                                     "1d-improved-block-row"}),
    )
    p_square.add_argument("--strategy", default="none", choices=PERMUTATION_STRATEGIES)
    p_square.add_argument("--block-split", type=int, default=2048,
                          help="Algorithm 2's K (max RDMA messages per remote rank)")
    p_square.add_argument("--layers", type=int, default=None,
                          help="3D layer count c (3d/3d-split only; default: auto)")
    p_square.add_argument("--chain", type=int, default=None, metavar="K",
                          help="iterated squaring: compute A^(2^K) on the "
                               "resident pipeline instead of a single A·A")
    p_square.add_argument("--breakdown", action="store_true",
                          help="print the per-rank comm/comp/other breakdown")
    p_square.add_argument("--backend", default="simulated",
                          help="execution backend (simulated = modelled only; "
                               "shm = real shared-memory transfers)")
    _add_kernel_argument(p_square)

    p_est = sub.add_parser("estimate", help="CV/memA partitioning criterion (§V-A)")
    _add_input_arguments(p_est)
    p_est.add_argument("--threshold", type=float, default=0.30)

    p_gal = sub.add_parser("galerkin", help="AMG Galerkin product RᵀAR (Figs 10-12)")
    _add_input_arguments(p_gal)

    p_bc = sub.add_parser("bc", help="batched betweenness centrality (Figs 13-14)")
    _add_input_arguments(p_bc)
    p_bc.add_argument("--sources", type=int, default=32, help="number of sampled sources")
    p_bc.add_argument("--batch-size", type=int, default=16)
    p_bc.add_argument("--algorithm", default="1d")

    p_tri = sub.add_parser(
        "triangles",
        help="triangle counting via masked SpGEMM (L·L masked by L)",
    )
    _add_input_arguments(p_tri)
    p_tri.add_argument("--algorithm", default="1d")
    p_tri.add_argument("--mask-mode", default="late", choices=("late", "early"),
                       help="early (1d only) prunes the RDMA fetch plan "
                            "against the mask's column support")
    p_tri.add_argument("--block-split", type=int, default=2048,
                       help="Algorithm 2's K (max RDMA messages per remote rank)")

    p_mcl = sub.add_parser(
        "mcl",
        help="Markov clustering (expansion + inflation + pruning to convergence)",
    )
    _add_input_arguments(p_mcl)
    p_mcl.add_argument("--algorithm", default="1d",
                       help="1D-column-output algorithm (1d, outer-product)")
    p_mcl.add_argument("--inflation", type=float, default=2.0,
                       help="inflation exponent r")
    p_mcl.add_argument("--prune-threshold", type=float, default=1e-3,
                       help="entries with |value| <= threshold are dropped")
    p_mcl.add_argument("--max-iters", type=int, default=30,
                       help="iteration cap")
    p_mcl.add_argument("--block-split", type=int, default=2048,
                       help="Algorithm 2's K (max RDMA messages per remote rank)")

    p_sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel, cached engine",
    )
    p_sweep.add_argument(
        "--datasets", default="hv15r",
        help="comma-separated built-in dataset names",
    )
    p_sweep.add_argument(
        "--workloads", default="squaring",
        # The valid set comes from the registry, so a new workload shows up
        # here (and in the validation message) without touching the CLI.
        help=f"comma-separated workloads ({', '.join(workload_names())})",
    )
    p_sweep.add_argument("--algorithms", default="1d",
                         help="comma-separated algorithm names")
    p_sweep.add_argument("--strategies", default="none",
                         help="comma-separated permutation strategies")
    p_sweep.add_argument("--nprocs", default="4,16",
                         help="comma-separated simulated process counts")
    p_sweep.add_argument("--block-splits", default="2048",
                         help="comma-separated block-split (K) values")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma-separated permutation seeds")
    p_sweep.add_argument("--scale", type=float, default=0.5,
                         help="dataset scale factor")
    p_sweep.add_argument("--cost-model", default="perlmutter",
                         choices=sorted(COST_MODELS))
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="worker processes (0/1 = serial)")
    p_sweep.add_argument("--worker-cache-mb", type=int, default=None,
                         help="per-worker resident operand cache budget "
                              "(MiB; default 256)")
    p_sweep.add_argument("--no-shm-transport", action="store_true",
                         help="disable the shared-memory dataset transport "
                              "(workers fall back to the disk cache)")
    p_sweep.add_argument("--records", default=None,
                         help="JSONL store for records (enables caching/resume)")
    p_sweep.add_argument("--force", action="store_true",
                         help="re-execute configs even on a cache hit")
    p_sweep.add_argument("--amg-phase", default=None, choices=("rta", "rtar"),
                         help="amg-restriction workload: RtA only, or RtA + (RtA)R")
    p_sweep.add_argument("--mis-seed", type=int, default=0,
                         help="amg-restriction workload: MIS-2 aggregation seed")
    p_sweep.add_argument("--right-algorithm", default=None,
                         help="amg-restriction workload: (RtA)R algorithm "
                              "(default outer-product)")
    p_sweep.add_argument("--bc-sources", type=int, default=None,
                         help="bc workload: number of source vertices (required)")
    p_sweep.add_argument("--bc-batch", type=int, default=None,
                         help="bc workload: batch size (default: all sources)")
    p_sweep.add_argument("--bc-stride", type=int, default=None,
                         help="bc workload: pick sources 0, s, 2s, … instead of sampling")
    p_sweep.add_argument("--bc-directed", action="store_true",
                         help="bc workload: treat the adjacency matrix as directed")
    p_sweep.add_argument("--resident", action="store_true",
                         help="bc workload: hold A resident on one run-wide "
                              "cluster (setup charged once per run, not per "
                              "iteration)")
    p_sweep.add_argument("--square-k", type=int, default=None,
                         help="chained-squaring workload: number of squarings "
                              "(required; final product is A^(2^k))")
    p_sweep.add_argument("--mask-mode", default=None, choices=("late", "early"),
                         help="triangles workload: apply the mask after the "
                              "kernel (late) or also prune the 1d fetch plan "
                              "(early)")
    p_sweep.add_argument("--mcl-inflation", type=float, default=None,
                         help="mcl workload: inflation exponent r (default 2.0)")
    p_sweep.add_argument("--mcl-prune", type=float, default=None,
                         help="mcl workload: pruning threshold (default 1e-3)")
    p_sweep.add_argument("--mcl-max-iters", type=int, default=None,
                         help="mcl workload: iteration cap (default 30)")
    p_sweep.add_argument("--backend", default="simulated",
                         help="execution backend for every config of the grid "
                              "(simulated = modelled only; shm = real "
                              "shared-memory transfers)")
    p_sweep.add_argument("--budget", type=int, default=None,
                         help="admission control: max fresh executions the "
                              "sweep may trigger (cache hits are free); a "
                              "grid over budget is rejected before anything "
                              "runs")
    p_sweep.add_argument("--max-inflight-configs", type=int, default=None,
                         help="admission control: reject the sweep when it "
                              "would put more than this many configs in "
                              "flight")
    _add_kernel_argument(p_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived experiment service: one scheduler + resident "
             "operand cache behind a JSON-line socket",
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="serve on a unix socket at PATH")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind host (with --port; default localhost)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve on localhost TCP (0 picks a free port, "
                              "printed on startup)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker processes of the shared pool "
                              "(0/1 = serial lane only)")
    p_serve.add_argument("--records", default=None,
                         help="JSONL store shared by every job "
                              "(enables caching/resume)")
    p_serve.add_argument("--max-jobs", type=int, default=None,
                         help="admission control: max jobs in flight")
    p_serve.add_argument("--max-configs", type=int, default=None,
                         help="admission control: max configs in flight")
    p_serve.add_argument("--operand-cache-mb", type=int, default=256,
                         help="budget (MiB) of the resident operand cache "
                              "(0 disables it)")
    p_serve.add_argument("--worker-cache-mb", type=int, default=None,
                         help="per-pool-worker resident operand cache budget "
                              "(MiB; defaults to --operand-cache-mb)")
    p_serve.add_argument("--journal", default=None, metavar="DIR",
                         help="crash-safe mode: write-ahead job journal in "
                              "DIR; on restart, interrupted jobs are "
                              "re-adopted and resumed")
    p_serve.add_argument("--task-timeout", type=float, default=None,
                         help="kill + retry a pool task running longer than "
                              "this many seconds (default: REPRO_TASK_TIMEOUT "
                              "or no timeout)")
    p_serve.add_argument("--max-retries", type=int, default=None,
                         help="extra attempts for a task lost to a dead/hung "
                              "worker (default: REPRO_MAX_RETRIES or 1)")

    sub.add_parser("datasets", help="list the built-in dataset analogues")
    sub.add_parser("algorithms", help="list the available distributed algorithms")
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _check_backend(name: Optional[str]) -> Optional[str]:
    """Validation message for a ``--backend`` value (``None`` = valid)."""
    if name is None or name in available_backends():
        return None
    return (
        f"unknown backend {name!r}; available backends: "
        f"{', '.join(available_backends())}"
    )


def _activate_kernel(name: Optional[str]) -> Optional[str]:
    """Validate and activate a ``--kernel`` value (``None`` = leave as-is).

    Returns the validation message on an unknown variant (for a clean exit 2
    before anything runs).
    """
    if name is None:
        return None
    if name not in KERNEL_VARIANTS:
        return (
            f"unknown kernel variant {name!r}; valid variants: "
            f"{', '.join(KERNEL_VARIANTS)}"
        )
    # Writes REPRO_KERNEL, so pool workers of a sweep inherit the choice.
    set_kernel_variant(name)
    return None


def _cmd_square(args) -> int:
    problem = _check_backend(args.backend) or _activate_kernel(args.kernel)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    A = _load_input(args)
    if args.chain is not None:
        return _cmd_square_chain(args, A)
    run = run_squaring(
        A,
        algorithm=args.algorithm,
        strategy=args.strategy,
        nprocs=args.nprocs,
        block_split=args.block_split,
        layers=args.layers,
        cost_model=PERLMUTTER,
        dataset=_input_label(args),
        backend=args.backend,
    )
    rows = [
        {
            "algorithm": run.algorithm,
            "strategy": run.strategy,
            "P": run.nprocs,
            "kernel time": seconds(run.spgemm_time),
            "kernel+perm": seconds(run.total_time_with_permutation),
            "comm volume": mebibytes(run.result.communication_volume),
            "messages": run.result.message_count,
            "CV/memA": f"{run.cv_over_mema:.3f}",
        }
    ]
    print(format_table(rows, title="squaring"))
    if args.breakdown:
        print()
        print(breakdown_table(run.result))
    return 0


def _cmd_square_chain(args, A) -> int:
    from .apps.squaring import run_chained_squaring

    if args.chain < 1:
        print(f"--chain must be >= 1, got {args.chain}", file=sys.stderr)
        return 2
    run = run_chained_squaring(
        A,
        k=args.chain,
        algorithm=args.algorithm,
        strategy=args.strategy,
        nprocs=args.nprocs,
        block_split=args.block_split,
        layers=args.layers,
        cost_model=PERLMUTTER,
        dataset=_input_label(args),
        backend=args.backend,
    )
    rows = [
        {
            "level": i,
            "power": 2 ** (i + 1),
            "time": seconds(lvl.elapsed_time),
            "comm volume": mebibytes(lvl.communication_volume),
            "messages": lvl.message_count,
            "output nnz": lvl.output_nnz,
        }
        for i, lvl in enumerate(run.results)
    ]
    print(format_table(rows, title=f"chained squaring (A^(2^{run.k}))"))
    print(
        f"\ntotal: {seconds(run.elapsed_time)}   "
        f"volume: {mebibytes(run.communication_volume)}   "
        f"messages: {run.message_count}"
    )
    if args.breakdown:
        for i, level in enumerate(run.results):
            print()
            print(f"level {i} (A^{2 ** (i + 1)}):")
            print(breakdown_table(level))
    return 0


def _cmd_estimate(args) -> int:
    A = _load_input(args)
    decision, ratio = should_partition(A, nprocs=args.nprocs, threshold=args.threshold)
    stats = matrix_stats(A, _input_label(args))
    print(format_table([stats.as_row()], title="input"))
    print(
        f"\nCV/memA at P={args.nprocs}: {ratio:.3f} "
        f"-> {'apply' if decision else 'skip'} graph partitioning "
        f"(threshold {args.threshold:.0%})"
    )
    return 0


def _cmd_galerkin(args) -> int:
    A = _load_input(args)
    g = galerkin_product(A, nprocs=args.nprocs)
    rows = [
        {
            "step": "RtA (1D)",
            "time": seconds(g.left.elapsed_time),
            "volume": mebibytes(g.left.communication_volume),
        },
        {
            "step": "(RtA)R (outer-product)",
            "time": seconds(g.right.elapsed_time),
            "volume": mebibytes(g.right.communication_volume),
        },
    ]
    print(format_table(rows, title="Galerkin product"))
    print(
        f"\nR: {g.restriction.R.nrows} x {g.restriction.R.ncols} "
        f"({g.restriction.R.nnz} nnz); coarse operator: "
        f"{g.coarse.nrows} x {g.coarse.ncols} ({g.coarse.nnz} nnz)"
    )
    return 0


def _cmd_bc(args) -> int:
    A = _load_input(args)
    result = batched_betweenness_centrality(
        A,
        num_sources=args.sources,
        batch_size=args.batch_size,
        algorithm=args.algorithm,
        nprocs=args.nprocs,
        seed=0,
    )
    print(
        f"forward search: {seconds(result.forward_time)}   "
        f"backward sweep: {seconds(result.backward_time)}   "
        f"iterations: {len(result.iterations)}"
    )
    import numpy as np

    top = np.argsort(result.scores)[::-1][:10]
    rows = [{"vertex": int(v), "score": f"{result.scores[v]:.2f}"} for v in top]
    print(format_table(rows, title="top-10 vertices by approximate BC"))
    return 0


def _cmd_triangles(args) -> int:
    from .apps.triangles import run_triangles

    A = _load_input(args)
    run = run_triangles(
        A,
        algorithm=args.algorithm,
        nprocs=args.nprocs,
        block_split=args.block_split,
        mask_mode=args.mask_mode,
        dataset=_input_label(args),
    )
    rows = [
        {
            "algorithm": run.algorithm,
            "P": run.nprocs,
            "mask": run.mask_mode,
            "triangles": run.triangles,
            "L nnz": run.l_nnz,
            "masked nnz": run.masked_nnz,
            "time": seconds(run.result.elapsed_time),
            "comm volume": mebibytes(run.result.communication_volume),
            "messages": run.result.message_count,
        }
    ]
    print(format_table(rows, title="triangle counting ((L·L) ⊙ L)"))
    print(f"\nscipy reference: {run.reference} -> "
          f"{'match' if run.matches_reference else 'MISMATCH'}")
    return 0 if run.matches_reference else 1


def _cmd_mcl(args) -> int:
    from .apps.mcl import run_mcl

    A = _load_input(args)
    run = run_mcl(
        A,
        inflation=args.inflation,
        prune_threshold=args.prune_threshold,
        max_iterations=args.max_iters,
        algorithm=args.algorithm,
        nprocs=args.nprocs,
        block_split=args.block_split,
        dataset=_input_label(args),
    )
    expand = [it for it in run.iterations if it.phase == "expand"]
    rows = [
        {
            "iter": it.iteration,
            "time": seconds(it.time),
            "volume": mebibytes(it.volume),
            "messages": it.messages,
            "nnz after expand": it.nnz,
        }
        for it in expand
    ]
    print(format_table(rows, title=f"MCL (inflation {run.inflation}, "
                                   f"prune {run.prune_threshold})"))
    print(
        f"\n{'converged' if run.converged else 'NOT converged'} after "
        f"{run.n_iterations} iterations (chaos {run.final_chaos:.2e}); "
        f"{run.n_clusters} clusters, final nnz {run.final_nnz}"
    )
    print(
        f"total: {seconds(run.elapsed_time)}   "
        f"volume: {mebibytes(run.communication_volume)}   "
        f"messages: {run.message_count}"
    )
    return 0 if run.converged and run.conserved else 1


def _parse_csv(text: str, cast) -> List:
    return [cast(part.strip()) for part in text.split(",") if part.strip()]


def _validate_grid(grid: ExperimentGrid) -> List[str]:
    """Axis problems of a grid (empty = valid).

    Validation happens up front: a typo must exit cleanly before any config
    executes, not crash a worker mid-sweep after partial persistence.
    """
    from .core.registry import ALGORITHM_FACTORIES

    problems = []
    unknown = [d for d in grid.datasets if d not in dataset_names()]
    if unknown:
        problems.append(f"unknown datasets: {', '.join(unknown)}")
    unknown = [w for w in grid.workloads if w not in workload_names()]
    if unknown:
        # List the valid set straight from the registry so this message can
        # never go stale when a workload is added.
        problems.append(
            f"unknown workloads: {', '.join(unknown)} "
            f"(valid: {', '.join(workload_names())})"
        )
    # "local" is the bc workload's run-everything-in-one-process mode; the
    # distributed registry does not know it.
    bc_only = set(grid.workloads) == {"bc"}
    valid_algorithms = set(ALGORITHM_FACTORIES) | ({"local"} if bc_only else set())
    unknown = [a for a in grid.algorithms if a.lower() not in valid_algorithms]
    if unknown:
        problems.append(f"unknown algorithms: {', '.join(unknown)}")
    unknown = [s for s in grid.strategies if s not in PERMUTATION_STRATEGIES]
    if unknown:
        problems.append(f"unknown strategies: {', '.join(unknown)}")
    unknown = [b for b in grid.backends if b not in available_backends()]
    if unknown:
        problems.append(
            f"unknown backends: {', '.join(unknown)}; available backends: "
            f"{', '.join(available_backends())}"
        )
    try:
        grid.expand()  # RunConfig rejects nprocs/block_split < 1 and scale <= 0
    except ValueError as exc:
        problems.append(str(exc))
    if "bc" in grid.workloads:
        if grid.bc_sources is None:
            problems.append("the bc workload requires --bc-sources")
        elif grid.bc_sources <= 0:
            problems.append(f"--bc-sources must be positive: {grid.bc_sources}")
        if grid.bc_batch is not None and grid.bc_batch <= 0:
            problems.append(f"--bc-batch must be positive: {grid.bc_batch}")
        if grid.bc_source_stride is not None and grid.bc_source_stride <= 0:
            problems.append(f"--bc-stride must be positive: {grid.bc_source_stride}")
    if grid.amg_phase not in (None, "rta", "rtar"):
        problems.append(f"unknown amg phase: {grid.amg_phase}")
    if "chained-squaring" in grid.workloads:
        if grid.square_k is None:
            problems.append("the chained-squaring workload requires --square-k")
        elif grid.square_k < 1:
            problems.append(f"--square-k must be >= 1: {grid.square_k}")
    if "triangles" in grid.workloads and grid.mask_mode == "early":
        non_1d = [a for a in grid.algorithms
                  if a.lower() not in ("1d", "1d-sparsity-aware")]
        if non_1d:
            problems.append(
                "--mask-mode early only applies to the 1d algorithm "
                f"(got: {', '.join(non_1d)})"
            )
    if "mcl" in grid.workloads:
        from .apps.mcl import COLUMN_OUTPUT_ALGORITHMS as column_only

        non_col = [a for a in grid.algorithms if a.lower() not in column_only]
        if non_col:
            problems.append(
                "the mcl workload requires a 1D-column-output algorithm "
                f"({', '.join(column_only)}); got: {', '.join(non_col)}"
            )
        if grid.mcl_inflation is not None and grid.mcl_inflation <= 0:
            problems.append(f"--mcl-inflation must be positive: {grid.mcl_inflation}")
        if grid.mcl_prune is not None and grid.mcl_prune < 0:
            problems.append(f"--mcl-prune must be non-negative: {grid.mcl_prune}")
        if grid.mcl_max_iters is not None and grid.mcl_max_iters < 1:
            problems.append(f"--mcl-max-iters must be >= 1: {grid.mcl_max_iters}")
    return problems


def _record_row(r) -> dict:
    return {
        "workload": r.workload,
        "dataset": r.config.dataset,
        "algorithm": r.algorithm,
        "strategy": r.config.strategy,
        "P": r.config.nprocs,
        "K": r.config.block_split,
        "seed": r.config.seed,
        "time (s)": f"{r.elapsed_time:.6f}",
        "time+perm (s)": f"{r.total_time_with_permutation:.6f}",
        "volume": mebibytes(r.communication_volume),
        "messages": r.message_count,
        "CV/memA": f"{r.cv_over_mema:.3f}",
        "conserved": "yes" if r.conserved else "NO",
    }


def _cmd_sweep(args) -> int:
    grid = ExperimentGrid(
        datasets=_parse_csv(args.datasets, str),
        workloads=_parse_csv(args.workloads, str),
        algorithms=_parse_csv(args.algorithms, str),
        strategies=_parse_csv(args.strategies, str),
        process_counts=_parse_csv(args.nprocs, int),
        block_splits=_parse_csv(args.block_splits, int),
        seeds=_parse_csv(args.seeds, int),
        scale=args.scale,
        cost_model=args.cost_model,
        amg_phase=args.amg_phase,
        mis_seed=args.mis_seed,
        right_algorithm=args.right_algorithm,
        bc_sources=args.bc_sources,
        bc_batch=args.bc_batch,
        bc_source_stride=args.bc_stride,
        bc_directed=args.bc_directed,
        resident=args.resident,
        square_k=args.square_k,
        mask_mode=args.mask_mode,
        mcl_inflation=args.mcl_inflation,
        mcl_prune=args.mcl_prune,
        mcl_max_iters=args.mcl_max_iters,
        backends=(args.backend,),
    )
    problems = _validate_grid(grid)
    kernel_problem = _activate_kernel(args.kernel)
    if kernel_problem:
        problems.append(kernel_problem)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2
    try:
        result = run_grid(
            grid,
            workers=args.workers,
            store=args.records,
            force=args.force,
            progress=print,
            budget=args.budget,
            max_inflight_configs=args.max_inflight_configs,
            worker_cache_mb=args.worker_cache_mb,
            transport=False if args.no_shm_transport else None,
        )
    except JobRejected as exc:
        # Admission control refused the whole grid before anything executed
        # or was persisted; surface the reason and a distinct exit code.
        print(f"sweep rejected: {exc.reason}", file=sys.stderr)
        return 3
    print(format_table([_record_row(r) for r in result.records], title="sweep"))
    print()
    print(result.summary())
    return 0 if all(r.conserved for r in result.records) else 1


def _cmd_serve(args) -> int:
    import asyncio

    from .experiments.service import ExperimentService

    if args.socket is None and args.port is None:
        print("serve needs --socket PATH or --port N (0 = pick a free port)",
              file=sys.stderr)
        return 2
    service = ExperimentService(
        workers=args.workers,
        store=args.records,
        max_inflight_jobs=args.max_jobs,
        max_inflight_configs=args.max_configs,
        operand_cache_mb=args.operand_cache_mb,
        worker_cache_mb=args.worker_cache_mb,
        journal=args.journal,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
    )

    # Announced on its own flushed line so wrappers (CI, tests) can wait for
    # readiness and, with --port 0, learn the picked port.
    def ready(address: str) -> None:
        print(f"repro serve: listening on {address}", flush=True)

    try:
        asyncio.run(service.run(
            socket_path=args.socket,
            host=args.host,
            port=args.port or 0,
            ready=ready,
        ))
    except KeyboardInterrupt:
        pass
    print("repro serve: stopped", flush=True)
    return 0


def _cmd_datasets(_args) -> int:
    from .matrices import DATASETS

    rows = [
        {
            "name": spec.name,
            "paper matrix": spec.paper_name,
            "paper rows": spec.paper_nrows,
            "paper nnz": spec.paper_nnz,
            "best strategy": spec.paper_best_strategy,
        }
        for spec in DATASETS.values()
    ]
    print(format_table(rows, title="built-in dataset analogues (Table II)"))
    return 0


def _cmd_algorithms(_args) -> int:
    for name in available_algorithms():
        print(name)
    return 0


_COMMANDS = {
    "square": _cmd_square,
    "estimate": _cmd_estimate,
    "galerkin": _cmd_galerkin,
    "bc": _cmd_bc,
    "triangles": _cmd_triangles,
    "mcl": _cmd_mcl,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "datasets": _cmd_datasets,
    "algorithms": _cmd_algorithms,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The workload registry: how one :class:`RunConfig` becomes one record.

The paper's evaluation spans three applications, and each is a workload of
the experiment engine:

``squaring``
    ``A·A`` with a permutation strategy (Figs 4–9) — the original engine
    workload, unchanged semantics.

``amg-restriction``
    The AMG Galerkin restriction product (Table III, Figs 10–12): build the
    MIS-2 restriction operator ``R``, optionally permute, then run the left
    multiplication ``RᵀA`` (``amg_phase="rta"``) or the full triple product
    ``RᵀA`` + ``(RᵀA)·R`` (``amg_phase="rtar"``, the default).  The two
    SpGEMMs keep separate ledgers (the paper reports the phases apart) and
    are merged into one record with per-phase extras in ``record.amg``.

``bc``
    Batched approximate betweenness centrality (Figs 13–14): multi-source
    BFS forward search and backward sweep, one SpGEMM per level, with the
    per-iteration series persisted in ``record.bc``.  With
    ``config.resident`` the adjacency operand is made resident once per run
    (the setup appears as a single ``phase="setup"`` entry in the iteration
    series) instead of being re-distributed and re-exposed every level.

``chained-squaring``
    MCL-style iterated squaring ``A^(2^k)`` (``config.square_k`` levels) on
    the resident prepare/execute pipeline: each level's distributed ``C``
    feeds the next level directly, with per-level times/volumes/messages in
    ``record.chain``.

``triangles``
    Distributed masked-SpGEMM triangle counting ``Σ((L·L) ⊙ L)``: the
    strictly lower-triangular pattern ``L`` serves as both operands and the
    mask (resident in the output layout, applied rank-locally).
    ``config.mask_mode="early"`` additionally prunes the 1D fetch plan
    against the mask's column support.  The count is asserted equal to a
    local scipy reference at run time; extras land in ``record.triangles``.

``mcl``
    Full Markov clustering — expansion (resident chained SpGEMM),
    inflation, pruning — iterated to chaos convergence, parameterised by
    ``config.mcl_inflation`` / ``mcl_prune`` / ``mcl_max_iters``.  The
    per-iteration ``{phase, iteration, time, volume, messages, nnz}``
    series (phases expand/inflate/prune/converge) lands in ``record.mcl``.

Workload executors read only modelled counters and distributed-operand
metadata — no executor ever assembles a global output matrix, so
modelled-only engine runs skip global-C assembly entirely (pinned by a
byte-identical-store regression test that forces eager assembly).

Every executor receives the already-loaded input matrix and resolved cost
model and returns a :class:`RunRecord` whose ``config_hash`` is left empty
— the engine fills it in (or deliberately leaves it empty for records
produced with matrix/cost-model overrides).

Strategy semantics: the squaring workload threads the partition-derived
block bounds into the 1D algorithms (non-uniform blocks follow the
partitioner's parts, see :func:`repro.apps.squaring.run_squaring`); the
``amg-restriction`` and ``bc`` workloads apply the strategy as a **pure
reordering** over a uniform 1D block distribution — exactly the paper's
protocol for these applications and what the pre-migration benchmark
drivers did (BC §IV-C: METIS *ordering*, partitioning cost amortised away).
"""

from __future__ import annotations

import platform
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from ..runtime import CostModel, PhaseLedger
from ..sparse import CSCMatrix
from .config import RunConfig
from .records import (
    AMGStats,
    BCIterationStats,
    BCStats,
    ChainLevelStats,
    ChainStats,
    MCLIterationStats,
    MCLStats,
    MeasuredStats,
    RunRecord,
    TriangleStats,
)

__all__ = ["WORKLOADS", "workload_names", "execute_workload"]


def _algo_kwargs(algorithm: str, config: RunConfig) -> Dict[str, object]:
    """Constructor kwargs the named algorithm accepts from the config."""
    kwargs: Dict[str, object] = {}
    if algorithm in ("1d", "1d-sparsity-aware"):
        kwargs["block_split"] = config.block_split
    if algorithm in ("3d", "3d-split") and config.layers is not None:
        kwargs["layers"] = config.layers
    return kwargs


def _permutation_bytes(A: CSCMatrix, config: RunConfig) -> int:
    """Bytes the permutation-induced redistribution would move (0 for none)."""
    from ..distribution import estimate_redistribution_bytes

    if config.strategy == "none":
        return 0
    return estimate_redistribution_bytes(A, config.nprocs)


def machine_tag() -> Dict[str, str]:
    """Identify the host that produced a measured record."""
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
    }


def _measured_stats(config: RunConfig, ledger) -> Optional[MeasuredStats]:
    """Distil a run's measured-transfer ledger into record form.

    Returns ``None`` on the simulated backend (no measured ledger exists),
    which keeps simulated record stores byte-identical to pre-backend runs.
    """
    if ledger is None:
        return None
    return MeasuredStats.from_ledger(ledger, config.backend, machine=machine_tag())


def _per_rank_times(ledger: PhaseLedger) -> Dict[str, object]:
    arrs = ledger.per_rank_time_arrays()
    times: Dict[str, object] = {
        "comm": arrs["comm"].tolist(),
        "comp": arrs["comp"].tolist(),
        "other": arrs["other"].tolist(),
    }
    # Same totals, same formula as PhaseLedger.load_imbalance — computed here
    # so the record extraction sweeps the ledger once, not twice.  The
    # elementwise sum applies the category additions in dict order, matching
    # RankStats.total_time bit for bit.
    totals = arrs["comm"] + arrs["comp"] + arrs["other"]
    mean = float(np.mean(totals)) if totals.size else 0.0
    times["load_imbalance"] = 1.0 if mean == 0.0 else float(np.max(totals)) / mean
    return times


# ----------------------------------------------------------------------
# squaring
# ----------------------------------------------------------------------

def _execute_squaring(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    from ..apps.squaring import run_squaring  # deferred: keeps worker imports light

    run = run_squaring(
        A,
        algorithm=config.algorithm,
        strategy=config.strategy,
        nprocs=config.nprocs,
        cost_model=model,
        dataset=config.dataset,
        block_split=config.block_split,
        seed=config.seed,
        layers=config.layers,
        backend=config.backend,
    )
    ledger = run.result.ledger
    ranks = _per_rank_times(ledger)
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=run.algorithm,
        elapsed_time=run.result.elapsed_time,
        comm_time=run.result.comm_time,
        comp_time=run.result.comp_time,
        other_time=run.result.other_time,
        communication_volume=run.result.communication_volume,
        message_count=run.result.message_count,
        rdma_gets=run.result.rdma_gets,
        load_imbalance=ranks["load_imbalance"],
        cv_over_mema=run.cv_over_mema,
        permutation_seconds=run.permutation_seconds,
        permutation_bytes=run.permutation_bytes,
        # Distributed nnz — equal to the assembled C's nnz, without assembly.
        output_nnz=run.result.output_nnz,
        conserved=ledger.is_conserved(),
        per_rank_comm=ranks["comm"],
        per_rank_comp=ranks["comp"],
        per_rank_other=ranks["other"],
        workload="squaring",
        measured=_measured_stats(config, run.result.measured),
    )


# ----------------------------------------------------------------------
# chained-squaring
# ----------------------------------------------------------------------

def _execute_chained_squaring(
    config: RunConfig, A: CSCMatrix, model: CostModel
) -> RunRecord:
    from ..apps.squaring import run_chained_squaring

    if config.square_k is None or config.square_k < 1:
        raise ValueError(
            "the chained-squaring workload requires square_k >= 1, got "
            f"{config.square_k!r}"
        )
    run = run_chained_squaring(
        A,
        k=config.square_k,
        algorithm=config.algorithm,
        strategy=config.strategy,
        nprocs=config.nprocs,
        cost_model=model,
        dataset=config.dataset,
        block_split=config.block_split,
        seed=config.seed,
        layers=config.layers,
        backend=config.backend,
    )
    ledger = run.ledger
    ranks = _per_rank_times(ledger)
    categories = ledger.elapsed_time_by_category()
    chain = ChainStats(
        k=run.k,
        final_nnz=run.final.output_nnz,
        levels=[
            ChainLevelStats(
                level=i,
                time=lvl.elapsed_time,
                volume=lvl.communication_volume,
                messages=lvl.message_count,
                output_nnz=lvl.output_nnz,
            )
            for i, lvl in enumerate(run.results)
        ],
    )
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=run.algorithm,
        elapsed_time=ledger.elapsed_time(),
        comm_time=categories["comm"],
        comp_time=categories["comp"],
        other_time=categories["other"],
        communication_volume=ledger.total_bytes(),
        message_count=ledger.total_messages(),
        rdma_gets=ledger.total_rdma_gets(),
        load_imbalance=ranks["load_imbalance"],
        cv_over_mema=run.cv_over_mema,
        permutation_seconds=run.permutation_seconds,
        permutation_bytes=run.permutation_bytes,
        output_nnz=run.final.output_nnz,
        conserved=ledger.is_conserved(),
        per_rank_comm=ranks["comm"],
        per_rank_comp=ranks["comp"],
        per_rank_other=ranks["other"],
        workload="chained-squaring",
        chain=chain,
        measured=_measured_stats(config, run.measured),
    )


# ----------------------------------------------------------------------
# amg-restriction
# ----------------------------------------------------------------------

def _execute_amg(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    from ..apps.amg import build_restriction, left_multiplication, right_multiplication
    from ..apps.squaring import prepare_ordering

    phase = config.amg_phase or "rtar"
    if phase not in ("rta", "rtar"):
        raise ValueError(f"unknown amg_phase {config.amg_phase!r}; expected 'rta' or 'rtar'")
    right_algorithm = config.right_algorithm or "outer-product"

    restriction = build_restriction(A, seed=config.mis_seed)
    permuted, ordering, _wall = prepare_ordering(
        A, config.strategy, config.nprocs, seed=config.seed
    )
    R = (
        restriction.R
        if config.strategy == "none"
        else restriction.R.permute(row_perm=ordering.perm)
    )

    left = left_multiplication(
        R,
        permuted,
        algorithm=config.algorithm,
        nprocs=config.nprocs,
        cost_model=model,
        backend=config.backend,
        **_algo_kwargs(config.algorithm, config),
    )
    right = None
    if phase == "rtar":
        # Chain resident: the left product's distributed C feeds the right
        # multiplication directly — no intermediate global gather/scatter.
        # The modelled counters are identical to the legacy assembled path
        # (assembly was never charged); only the host-side gather disappears.
        right = right_multiplication(
            left,
            R,
            algorithm=right_algorithm,
            nprocs=config.nprocs,
            cost_model=model,
            backend=config.backend,
            **_algo_kwargs(right_algorithm, config),
        )

    # One combined ledger (phases kept apart by prefix) gives the record the
    # exact same Σ-max time conventions as the squaring workload.
    combined = PhaseLedger(nprocs=config.nprocs)
    combined.merge(left.ledger, prefix="rta:")
    if right is not None:
        combined.merge(right.ledger, prefix="rtar:")
    # The measured ledgers merge under the same prefixes as the modelled
    # ones, so the per-phase validation table lines the two up directly.
    combined_measured = None
    if left.measured is not None:
        from ..runtime.shm import MeasuredLedger

        combined_measured = MeasuredLedger(nprocs=config.nprocs)
        combined_measured.merge(left.measured, prefix="rta:")
        if right is not None and right.measured is not None:
            combined_measured.merge(right.measured, prefix="rtar:")
    ranks = _per_rank_times(combined)
    perm_bytes = _permutation_bytes(A, config)

    amg = AMGStats(
        n_fine=restriction.n_fine,
        n_coarse=restriction.n_coarse,
        r_nnz=restriction.R.nnz,
        coarsening_factor=restriction.n_fine / restriction.n_coarse,
        rta_nnz=left.output_nnz,
        left_time=left.elapsed_time,
        left_volume=left.communication_volume,
        left_messages=left.message_count,
        right_time=right.elapsed_time if right is not None else 0.0,
        right_volume=right.communication_volume if right is not None else 0,
        right_messages=right.message_count if right is not None else 0,
        coarse_nnz=right.output_nnz if right is not None else 0,
    )
    algorithm = left.algorithm if right is None else f"{left.algorithm}+{right.algorithm}"
    categories = combined.elapsed_time_by_category()
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=algorithm,
        elapsed_time=combined.elapsed_time(),
        comm_time=categories["comm"],
        comp_time=categories["comp"],
        other_time=categories["other"],
        communication_volume=combined.total_bytes(),
        message_count=combined.total_messages(),
        rdma_gets=combined.total_rdma_gets(),
        load_imbalance=ranks["load_imbalance"],
        cv_over_mema=0.0,
        permutation_seconds=model.beta * perm_bytes,
        permutation_bytes=perm_bytes,
        output_nnz=(right if right is not None else left).output_nnz,
        conserved=combined.is_conserved(),
        per_rank_comm=ranks["comm"],
        per_rank_comp=ranks["comp"],
        per_rank_other=ranks["other"],
        workload="amg-restriction",
        amg=amg,
        measured=_measured_stats(config, combined_measured),
    )


# ----------------------------------------------------------------------
# bc
# ----------------------------------------------------------------------

def _bc_sources(config: RunConfig, n: int) -> Optional[List[int]]:
    """Explicit source list for stride-selection configs (None → sampled)."""
    if config.bc_source_stride is None:
        return None
    stride = int(config.bc_source_stride)
    count = int(config.bc_sources)
    if stride <= 0:
        raise ValueError(f"bc_source_stride must be positive, got {stride}")
    if (count - 1) * stride >= n:
        raise ValueError(
            f"bc_sources={count} with stride {stride} exceeds the {n}-vertex graph"
        )
    return list(range(0, count * stride, stride))


def _execute_bc(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    from ..apps.bc import batched_betweenness_centrality
    from ..apps.squaring import prepare_ordering

    if config.bc_sources is None:
        raise ValueError("the bc workload requires bc_sources to be set")
    permuted, _ordering, _wall = prepare_ordering(
        A, config.strategy, config.nprocs, seed=config.seed
    )
    sources = _bc_sources(config, permuted.nrows)
    # Sampled sources are clamped to the vertex count inside the BC driver;
    # mirror that here so the record reports what actually ran.
    n_sources = (
        len(sources) if sources is not None else min(int(config.bc_sources), permuted.nrows)
    )
    batch_size = config.bc_batch or config.bc_sources
    result = batched_betweenness_centrality(
        permuted,
        sources=sources,
        num_sources=None if sources is not None else config.bc_sources,
        batch_size=batch_size,
        algorithm=config.algorithm,
        nprocs=config.nprocs,
        cost_model=model,
        directed=config.bc_directed,
        seed=config.seed,
        resident=config.resident,
        backend=config.backend,
    )
    perm_bytes = _permutation_bytes(A, config)
    iterations = [
        BCIterationStats(
            phase=r.phase,
            iteration=r.iteration,
            time=r.modelled_time,
            volume=r.communication_volume,
            messages=r.message_count,
            frontier_nnz=r.frontier_nnz,
        )
        for r in result.iterations
    ]
    bc = BCStats(
        sources=n_sources,
        batches=-(-n_sources // int(batch_size)),
        forward_time=result.forward_time,
        backward_time=result.backward_time,
        forward_volume=result.forward_volume,
        backward_volume=result.backward_volume,
        iterations=iterations,
        setup_time=result.setup_time,
        setup_volume=result.setup_volume,
    )
    recs = result.iterations
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=config.algorithm,
        elapsed_time=result.total_time,
        comm_time=sum(r.comm_time for r in recs),
        comp_time=sum(r.comp_time for r in recs),
        other_time=sum(r.other_time for r in recs),
        communication_volume=result.total_volume,
        message_count=result.message_count,
        rdma_gets=sum(r.rdma_gets for r in recs),
        load_imbalance=max((r.load_imbalance for r in recs), default=1.0),
        cv_over_mema=0.0,
        permutation_seconds=model.beta * perm_bytes,
        permutation_bytes=perm_bytes,
        output_nnz=int(np.count_nonzero(result.scores)),
        conserved=result.conserved,
        # Each BC iteration runs on its own simulated cluster, so there is
        # no meaningful cross-iteration per-rank decomposition to persist.
        workload="bc",
        bc=bc,
        measured=_measured_stats(config, result.measured),
    )


# ----------------------------------------------------------------------
# triangles
# ----------------------------------------------------------------------

def _execute_triangles(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    from ..apps.squaring import prepare_ordering
    from ..apps.triangles import run_triangles

    permuted, _ordering, _wall = prepare_ordering(
        A, config.strategy, config.nprocs, seed=config.seed
    )
    run = run_triangles(
        permuted,
        algorithm=config.algorithm,
        nprocs=config.nprocs,
        cost_model=model,
        dataset=config.dataset,
        block_split=config.block_split,
        mask_mode=config.mask_mode or "late",
        layers=config.layers,
        backend=config.backend,
    )
    ledger = run.result.ledger
    ranks = _per_rank_times(ledger)
    perm_bytes = _permutation_bytes(A, config)
    categories = ledger.elapsed_time_by_category()
    triangles = TriangleStats(
        triangles=run.triangles,
        l_nnz=run.l_nnz,
        masked_nnz=run.masked_nnz,
        mask_mode=run.mask_mode,
        reference_match=run.matches_reference,
    )
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=run.algorithm,
        elapsed_time=ledger.elapsed_time(),
        comm_time=categories["comm"],
        comp_time=categories["comp"],
        other_time=categories["other"],
        communication_volume=ledger.total_bytes(),
        message_count=ledger.total_messages(),
        rdma_gets=ledger.total_rdma_gets(),
        load_imbalance=ranks["load_imbalance"],
        cv_over_mema=0.0,
        permutation_seconds=model.beta * perm_bytes,
        permutation_bytes=perm_bytes,
        output_nnz=run.masked_nnz,
        conserved=ledger.is_conserved(),
        per_rank_comm=ranks["comm"],
        per_rank_comp=ranks["comp"],
        per_rank_other=ranks["other"],
        workload="triangles",
        triangles=triangles,
        measured=_measured_stats(config, run.result.measured),
    )


# ----------------------------------------------------------------------
# mcl
# ----------------------------------------------------------------------

def _execute_mcl(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    from ..apps.mcl import run_mcl
    from ..apps.squaring import prepare_ordering

    permuted, _ordering, _wall = prepare_ordering(
        A, config.strategy, config.nprocs, seed=config.seed
    )
    run = run_mcl(
        permuted,
        inflation=config.mcl_inflation if config.mcl_inflation is not None else 2.0,
        prune_threshold=config.mcl_prune if config.mcl_prune is not None else 1e-3,
        max_iterations=(
            config.mcl_max_iters if config.mcl_max_iters is not None else 30
        ),
        algorithm=config.algorithm,
        nprocs=config.nprocs,
        cost_model=model,
        dataset=config.dataset,
        block_split=config.block_split,
        layers=config.layers,
        backend=config.backend,
    )
    ledger = run.ledger
    ranks = _per_rank_times(ledger)
    perm_bytes = _permutation_bytes(A, config)
    categories = ledger.elapsed_time_by_category()
    mcl = MCLStats(
        inflation=run.inflation,
        prune_threshold=run.prune_threshold,
        n_iterations=run.n_iterations,
        converged=run.converged,
        final_chaos=run.final_chaos,
        final_nnz=run.final_nnz,
        n_clusters=run.n_clusters,
        iterations=[
            MCLIterationStats(
                phase=it.phase,
                iteration=it.iteration,
                time=it.time,
                volume=it.volume,
                messages=it.messages,
                nnz=it.nnz,
            )
            for it in run.iterations
        ],
    )
    return RunRecord(
        config=config,
        config_hash="",
        algorithm=run.algorithm,
        elapsed_time=ledger.elapsed_time(),
        comm_time=categories["comm"],
        comp_time=categories["comp"],
        other_time=categories["other"],
        communication_volume=ledger.total_bytes(),
        message_count=ledger.total_messages(),
        rdma_gets=ledger.total_rdma_gets(),
        load_imbalance=ranks["load_imbalance"],
        cv_over_mema=0.0,
        permutation_seconds=model.beta * perm_bytes,
        permutation_bytes=perm_bytes,
        output_nnz=run.final_nnz,
        conserved=ledger.is_conserved(),
        per_rank_comm=ranks["comm"],
        per_rank_comp=ranks["comp"],
        per_rank_other=ranks["other"],
        workload="mcl",
        mcl=mcl,
        measured=_measured_stats(config, run.measured),
    )


WORKLOADS: Dict[str, Callable[[RunConfig, CSCMatrix, CostModel], RunRecord]] = {
    "squaring": _execute_squaring,
    "chained-squaring": _execute_chained_squaring,
    "amg-restriction": _execute_amg,
    "bc": _execute_bc,
    "triangles": _execute_triangles,
    "mcl": _execute_mcl,
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


def execute_workload(config: RunConfig, A: CSCMatrix, model: CostModel) -> RunRecord:
    """Run ``config``'s workload on the loaded input ``A``."""
    if config.workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {config.workload!r}; available: {sorted(WORKLOADS)}"
        )
    return WORKLOADS[config.workload](config, A, model)

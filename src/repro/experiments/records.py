"""Deterministic result records produced by the experiment engine.

A :class:`RunRecord` holds everything a figure needs from one experiment —
modelled times, communication volumes, message counts, CV/memA,
conservation status, per-rank breakdowns — and *only* modelled
(deterministic) quantities, with one explicitly-marked exception: records
produced on a non-simulated backend additionally carry a
:class:`MeasuredStats` block of physically-measured wall-clock and byte
counts, tagged with the machine that produced it.  Simulated-backend
records never carry the block, so serial and parallel execution of the
same simulated grid produce byte-identical JSONL, and a cached record is
indistinguishable from a fresh run.  Measured fields are machine-local and
never compared across machines (see ``docs/accounting.md``).

The operand plane (shared-memory dataset transport, per-worker resident
operand caches, affinity routing — see ``experiments/scheduler``) is
host-side machinery only: residency hit/miss/eviction/steal counters live
in :class:`~repro.experiments.engine.SweepStats` and scheduler ``stats()``
snapshots, never inside a record.  Whether an operand was rehydrated from
shm, served from a worker's resident cache, or rebuilt from disk must not
— and does not — change a single byte of the persisted JSONL.

Non-squaring workloads attach their own result structures: the AMG
restriction workload records per-phase (RᵀA vs (RᵀA)·R) times/volumes and
the coarsening statistics of the MIS-2 restriction operator
(:class:`AMGStats`, Table III / Figs 10–12); the BC workload records the
per-iteration forward-search / backward-sweep series the paper plots in
Figs 13–14 (:class:`BCStats`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .config import RunConfig

__all__ = [
    "AMGStats",
    "BCIterationStats",
    "BCStats",
    "ChainLevelStats",
    "ChainStats",
    "MCLIterationStats",
    "MCLStats",
    "MeasuredPhaseStats",
    "MeasuredStats",
    "TriangleStats",
    "RunRecord",
]


@dataclass
class MeasuredPhaseStats:
    """Measured counters of one phase on a real-transfer backend."""

    phase: str
    #: wall-clock seconds of the whole phase block (driver code included)
    wall_seconds: float
    #: seconds spent inside shared-memory round trips
    transfer_seconds: float
    #: bytes physically received out of shared memory in this phase
    bytes: int
    #: number of physical transfers
    transfers: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "wall_seconds": self.wall_seconds,
            "transfer_seconds": self.transfer_seconds,
            "bytes": self.bytes,
            "transfers": self.transfers,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MeasuredPhaseStats":
        return cls(
            phase=str(data["phase"]),
            wall_seconds=float(data["wall_seconds"]),
            transfer_seconds=float(data["transfer_seconds"]),
            bytes=int(data["bytes"]),
            transfers=int(data["transfers"]),
        )


@dataclass
class MeasuredStats:
    """Physically-measured counters of one run on a non-simulated backend.

    Everything here is **machine-local** (wall clock, pickle wire sizes,
    the host tag) and therefore excluded from cross-PR and cross-machine
    comparison — unlike the modelled fields of the enclosing record, which
    stay bit-identical across backends and machines.
    """

    #: backend that produced the measurement ("shm", ...)
    backend: str
    #: wall-clock seconds summed over all phases
    wall_seconds: float
    #: seconds spent inside physical transfers
    transfer_seconds: float
    #: bytes physically pushed into / received out of shared memory
    bytes_sent: int
    bytes_received: int
    #: number of physical transfers
    transfers: int
    #: did every phase balance physically-sent against physically-received?
    conserved: bool
    #: host/platform/python tag of the measuring machine
    machine: Dict[str, str] = field(default_factory=dict)
    #: per-phase breakdown, in execution order
    phases: List[MeasuredPhaseStats] = field(default_factory=list)

    @classmethod
    def from_ledger(
        cls, ledger, backend: str, machine: Optional[Dict[str, str]] = None
    ) -> "MeasuredStats":
        """Summarise a :class:`~repro.runtime.shm.MeasuredLedger`."""
        summary = ledger.to_dict()
        return cls(
            backend=backend,
            wall_seconds=float(summary["wall_seconds"]),
            transfer_seconds=float(summary["transfer_seconds"]),
            bytes_sent=int(summary["bytes_sent"]),
            bytes_received=int(summary["bytes_received"]),
            transfers=int(summary["transfers"]),
            conserved=bool(summary["conserved"]),
            machine=dict(machine or {}),
            phases=[
                MeasuredPhaseStats(
                    phase=str(ph["phase"]),
                    wall_seconds=float(ph["wall_seconds"]),
                    transfer_seconds=float(ph["transfer_seconds"]),
                    bytes=int(ph["bytes"]),
                    transfers=int(ph["transfers"]),
                )
                for ph in summary["phases"]
            ],
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "wall_seconds": self.wall_seconds,
            "transfer_seconds": self.transfer_seconds,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "transfers": self.transfers,
            "conserved": self.conserved,
            "machine": self.machine,
            "phases": [ph.to_dict() for ph in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MeasuredStats":
        return cls(
            backend=str(data["backend"]),
            wall_seconds=float(data["wall_seconds"]),
            transfer_seconds=float(data["transfer_seconds"]),
            bytes_sent=int(data["bytes_sent"]),
            bytes_received=int(data["bytes_received"]),
            transfers=int(data["transfers"]),
            conserved=bool(data["conserved"]),
            machine={str(k): str(v) for k, v in (data.get("machine") or {}).items()},
            phases=[
                MeasuredPhaseStats.from_dict(ph) for ph in data.get("phases", [])
            ],
        )


@dataclass
class TriangleStats:
    """Extras of one triangle-counting record (triangles workload only)."""

    #: exact triangle count (== the scipy reference, asserted at run time)
    triangles: int
    #: nnz of the strictly lower-triangular operand/mask L
    l_nnz: int
    #: nnz of the masked product (L·L) ⊙ L
    masked_nnz: int
    #: mask mode actually used: "late" or "early"
    mask_mode: str
    #: did the distributed count match the local scipy reference?
    reference_match: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {
            "triangles": self.triangles,
            "l_nnz": self.l_nnz,
            "masked_nnz": self.masked_nnz,
            "mask_mode": self.mask_mode,
            "reference_match": self.reference_match,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TriangleStats":
        return cls(
            triangles=int(data["triangles"]),
            l_nnz=int(data["l_nnz"]),
            masked_nnz=int(data["masked_nnz"]),
            mask_mode=str(data["mask_mode"]),
            reference_match=bool(data.get("reference_match", True)),
        )


@dataclass
class MCLIterationStats:
    """One phase of one MCL iteration (expand / inflate / prune / converge)."""

    phase: str
    iteration: int
    #: modelled seconds / bytes received / messages of the phase
    time: float
    volume: int
    messages: int
    #: stored entries of the iterate after the phase
    nnz: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "iteration": self.iteration,
            "time": self.time,
            "volume": self.volume,
            "messages": self.messages,
            "nnz": self.nnz,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MCLIterationStats":
        return cls(
            phase=str(data["phase"]),
            iteration=int(data["iteration"]),
            time=float(data["time"]),
            volume=int(data["volume"]),
            messages=int(data["messages"]),
            nnz=int(data["nnz"]),
        )


@dataclass
class MCLStats:
    """Per-iteration telemetry of one Markov-clustering run."""

    #: inflation exponent and pruning threshold actually used
    inflation: float
    prune_threshold: float
    #: executed iterations and whether chaos reached the convergence bound
    n_iterations: int
    converged: bool
    #: chaos after the last iteration and nnz / cluster count of the result
    final_chaos: float
    final_nnz: int
    n_clusters: int
    #: the per-phase iteration series, in execution order
    iterations: List[MCLIterationStats] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "inflation": self.inflation,
            "prune_threshold": self.prune_threshold,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "final_chaos": self.final_chaos,
            "final_nnz": self.final_nnz,
            "n_clusters": self.n_clusters,
            "iterations": [it.to_dict() for it in self.iterations],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MCLStats":
        return cls(
            inflation=float(data["inflation"]),
            prune_threshold=float(data["prune_threshold"]),
            n_iterations=int(data["n_iterations"]),
            converged=bool(data["converged"]),
            final_chaos=float(data["final_chaos"]),
            final_nnz=int(data["final_nnz"]),
            n_clusters=int(data["n_clusters"]),
            iterations=[
                MCLIterationStats.from_dict(it) for it in data.get("iterations", [])
            ],
        )


@dataclass
class ChainLevelStats:
    """One squaring level of a chained-squaring run (``A^(2^(level+1))``)."""

    level: int
    #: modelled seconds / bytes received / messages of this level's SpGEMM
    time: float
    volume: int
    messages: int
    #: nnz of this level's product (computed without global assembly)
    output_nnz: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "time": self.time,
            "volume": self.volume,
            "messages": self.messages,
            "output_nnz": self.output_nnz,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChainLevelStats":
        return cls(
            level=int(data["level"]),
            time=float(data["time"]),
            volume=int(data["volume"]),
            messages=int(data["messages"]),
            output_nnz=int(data["output_nnz"]),
        )


@dataclass
class ChainStats:
    """Per-level telemetry of one chained-squaring (``A^(2^k)``) run."""

    #: number of squarings (the final product is A^(2^k))
    k: int
    #: nnz of the final product
    final_nnz: int
    #: one entry per squaring level, in execution order
    levels: List[ChainLevelStats] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "final_nnz": self.final_nnz,
            "levels": [lvl.to_dict() for lvl in self.levels],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChainStats":
        return cls(
            k=int(data["k"]),
            final_nnz=int(data["final_nnz"]),
            levels=[ChainLevelStats.from_dict(lvl) for lvl in data.get("levels", [])],
        )


@dataclass
class AMGStats:
    """Coarsening and per-phase statistics of one AMG restriction run.

    The ``right_*`` fields are zero when the config's ``amg_phase`` is
    ``"rta"`` (the left multiplication is the whole run).
    """

    #: fine / coarse grid sizes of the MIS-2 restriction operator
    n_fine: int
    n_coarse: int
    #: nnz(R) — exactly ``n_fine`` for the tentative piecewise-constant R
    r_nnz: int
    #: n_fine / n_coarse (Table III's coarsening factor)
    coarsening_factor: float
    #: nnz of the intermediate product RᵀA
    rta_nnz: int
    #: modelled seconds / bytes received / messages of the RᵀA SpGEMM
    left_time: float
    left_volume: int
    left_messages: int
    #: same for the (RᵀA)·R SpGEMM (zero in phase "rta")
    right_time: float = 0.0
    right_volume: int = 0
    right_messages: int = 0
    #: nnz of the coarse operator RᵀAR (zero in phase "rta")
    coarse_nnz: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_fine": self.n_fine,
            "n_coarse": self.n_coarse,
            "r_nnz": self.r_nnz,
            "coarsening_factor": self.coarsening_factor,
            "rta_nnz": self.rta_nnz,
            "left_time": self.left_time,
            "left_volume": self.left_volume,
            "left_messages": self.left_messages,
            "right_time": self.right_time,
            "right_volume": self.right_volume,
            "right_messages": self.right_messages,
            "coarse_nnz": self.coarse_nnz,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AMGStats":
        return cls(
            n_fine=int(data["n_fine"]),
            n_coarse=int(data["n_coarse"]),
            r_nnz=int(data["r_nnz"]),
            coarsening_factor=float(data["coarsening_factor"]),
            rta_nnz=int(data["rta_nnz"]),
            left_time=float(data["left_time"]),
            left_volume=int(data["left_volume"]),
            left_messages=int(data["left_messages"]),
            right_time=float(data.get("right_time", 0.0)),
            right_volume=int(data.get("right_volume", 0)),
            right_messages=int(data.get("right_messages", 0)),
            coarse_nnz=int(data.get("coarse_nnz", 0)),
        )


@dataclass
class BCIterationStats:
    """One SpGEMM iteration of the BC forward search or backward sweep."""

    phase: str          # "forward" or "backward"
    iteration: int
    #: modelled seconds of the distributed SpGEMM (0 in local mode)
    time: float
    #: bytes received during the iteration's SpGEMM
    volume: int
    messages: int
    frontier_nnz: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "iteration": self.iteration,
            "time": self.time,
            "volume": self.volume,
            "messages": self.messages,
            "frontier_nnz": self.frontier_nnz,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BCIterationStats":
        return cls(
            phase=str(data["phase"]),
            iteration=int(data["iteration"]),
            time=float(data["time"]),
            volume=int(data["volume"]),
            messages=int(data["messages"]),
            frontier_nnz=int(data["frontier_nnz"]),
        )


@dataclass
class BCStats:
    """Per-iteration telemetry of one batched betweenness-centrality run."""

    #: number of source vertices and batches actually processed
    sources: int
    batches: int
    #: modelled seconds summed over the forward / backward iterations
    forward_time: float
    backward_time: float
    #: bytes received summed over the forward / backward iterations
    forward_volume: int
    backward_volume: int
    #: the Fig 13/14 series: one entry per SpGEMM iteration
    iterations: List[BCIterationStats] = field(default_factory=list)
    #: hoisted one-off setup cost of a resident run (0 for legacy runs);
    #: with these, setup + forward + backward reconciles with the record's
    #: topline elapsed_time / communication_volume
    setup_time: float = 0.0
    setup_volume: int = 0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "sources": self.sources,
            "batches": self.batches,
            "forward_time": self.forward_time,
            "backward_time": self.backward_time,
            "forward_volume": self.forward_volume,
            "backward_volume": self.backward_volume,
            "iterations": [it.to_dict() for it in self.iterations],
        }
        # Only resident runs carry setup keys, so legacy bc JSONL rows stay
        # byte-identical to their pre-resident form.
        if self.setup_time or self.setup_volume:
            out["setup_time"] = self.setup_time
            out["setup_volume"] = self.setup_volume
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BCStats":
        return cls(
            sources=int(data["sources"]),
            batches=int(data["batches"]),
            forward_time=float(data["forward_time"]),
            backward_time=float(data["backward_time"]),
            forward_volume=int(data["forward_volume"]),
            backward_volume=int(data["backward_volume"]),
            iterations=[
                BCIterationStats.from_dict(it) for it in data.get("iterations", [])
            ],
            setup_time=float(data.get("setup_time", 0.0)),
            setup_volume=int(data.get("setup_volume", 0)),
        )


@dataclass
class RunRecord:
    """The persisted outcome of executing one :class:`RunConfig`.

    Units: ``*_time`` fields are modelled **seconds** (Σ over phases of the
    slowest rank), ``communication_volume``/``permutation_bytes`` are
    **bytes**, counts are event counts, ``output_nnz`` is stored entries.
    ``conserved`` records whether every ledger phase satisfied
    ``bytes_sent == bytes_received`` — the invariant every workload is
    expected to uphold.
    """

    #: the configuration that produced this record
    config: RunConfig
    #: cache key (``config.config_hash()`` at execution time)
    config_hash: str
    #: canonical algorithm name the registry resolved to
    algorithm: str
    #: modelled elapsed seconds (Σ over phases of the slowest rank)
    elapsed_time: float
    comm_time: float
    comp_time: float
    other_time: float
    #: total bytes received across all ranks and phases
    communication_volume: int
    message_count: int
    rdma_gets: int
    load_imbalance: float
    cv_over_mema: float
    #: modelled permutation/redistribution seconds (deterministic)
    permutation_seconds: float
    permutation_bytes: int
    output_nnz: int
    #: did every phase's ledger satisfy bytes_sent == bytes_received?
    conserved: bool
    #: per-rank modelled seconds by category (the Fig 8 stacked bars);
    #: empty for the bc workload (each iteration runs on its own cluster)
    per_rank_comm: List[float] = field(default_factory=list)
    per_rank_comp: List[float] = field(default_factory=list)
    per_rank_other: List[float] = field(default_factory=list)
    #: which workload produced this record (mirrors ``config.workload``)
    workload: str = "squaring"
    #: AMG restriction extras (amg-restriction workload only)
    amg: Optional[AMGStats] = None
    #: BC per-iteration series (bc workload only)
    bc: Optional[BCStats] = None
    #: per-level series of a chained-squaring run (chained-squaring only)
    chain: Optional[ChainStats] = None
    #: triangle-counting extras (triangles workload only)
    triangles: Optional[TriangleStats] = None
    #: Markov-clustering per-iteration series (mcl workload only)
    mcl: Optional[MCLStats] = None
    #: physically-measured counters (non-simulated backends only);
    #: machine-tagged and excluded from cross-PR comparison
    measured: Optional[MeasuredStats] = None

    @property
    def total_time_with_permutation(self) -> float:
        """Kernel time plus the (amortised-once) permutation cost."""
        return self.elapsed_time + self.permutation_seconds

    @property
    def per_rank_total(self) -> List[float]:
        """Per-rank total modelled seconds (load-imbalance bar chart input)."""
        return [
            c + p + o
            for c, p, o in zip(self.per_rank_comm, self.per_rank_comp, self.per_rank_other)
        ]

    # ------------------------------------------------------------------
    # JSON round-trip (one JSONL line per record)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config_hash": self.config_hash,
            "config": self.config.as_dict(),
            "workload": self.workload,
            "algorithm": self.algorithm,
            "elapsed_time": self.elapsed_time,
            "comm_time": self.comm_time,
            "comp_time": self.comp_time,
            "other_time": self.other_time,
            "communication_volume": self.communication_volume,
            "message_count": self.message_count,
            "rdma_gets": self.rdma_gets,
            "load_imbalance": self.load_imbalance,
            "cv_over_mema": self.cv_over_mema,
            "permutation_seconds": self.permutation_seconds,
            "permutation_bytes": self.permutation_bytes,
            "output_nnz": self.output_nnz,
            "conserved": self.conserved,
            "per_rank_comm": self.per_rank_comm,
            "per_rank_comp": self.per_rank_comp,
            "per_rank_other": self.per_rank_other,
        }
        # Workload extras only appear on the workloads that produce them, so
        # squaring JSONL rows stay exactly as lean as before.
        if self.amg is not None:
            out["amg"] = self.amg.to_dict()
        if self.bc is not None:
            out["bc"] = self.bc.to_dict()
        if self.chain is not None:
            out["chain"] = self.chain.to_dict()
        if self.triangles is not None:
            out["triangles"] = self.triangles.to_dict()
        if self.mcl is not None:
            out["mcl"] = self.mcl.to_dict()
        # The measured block exists only for non-simulated backends, so
        # every simulated JSONL row stays byte-identical to its pre-backend
        # form (and stays machine-independent).
        if self.measured is not None:
            out["measured"] = self.measured.to_dict()
        return out

    def to_json_line(self) -> str:
        """Canonical single-line JSON (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        return cls(
            config=RunConfig.from_dict(data["config"]),
            config_hash=str(data["config_hash"]),
            algorithm=str(data["algorithm"]),
            elapsed_time=float(data["elapsed_time"]),
            comm_time=float(data["comm_time"]),
            comp_time=float(data["comp_time"]),
            other_time=float(data["other_time"]),
            communication_volume=int(data["communication_volume"]),
            message_count=int(data["message_count"]),
            rdma_gets=int(data["rdma_gets"]),
            load_imbalance=float(data["load_imbalance"]),
            cv_over_mema=float(data["cv_over_mema"]),
            permutation_seconds=float(data["permutation_seconds"]),
            permutation_bytes=int(data["permutation_bytes"]),
            output_nnz=int(data["output_nnz"]),
            conserved=bool(data["conserved"]),
            per_rank_comm=[float(x) for x in data.get("per_rank_comm", [])],
            per_rank_comp=[float(x) for x in data.get("per_rank_comp", [])],
            per_rank_other=[float(x) for x in data.get("per_rank_other", [])],
            workload=str(data.get("workload", "squaring")),
            amg=AMGStats.from_dict(data["amg"]) if data.get("amg") else None,
            bc=BCStats.from_dict(data["bc"]) if data.get("bc") else None,
            chain=ChainStats.from_dict(data["chain"]) if data.get("chain") else None,
            triangles=(
                TriangleStats.from_dict(data["triangles"])
                if data.get("triangles")
                else None
            ),
            mcl=MCLStats.from_dict(data["mcl"]) if data.get("mcl") else None,
            measured=(
                MeasuredStats.from_dict(data["measured"])
                if data.get("measured")
                else None
            ),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        return cls.from_dict(json.loads(line))

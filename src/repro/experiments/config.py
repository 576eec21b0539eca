"""Declarative experiment configurations and grids.

The paper's evaluation is a family of sweeps — strong scaling (Figs 8, 9,
11), MPI×OpenMP configurations (Fig 7), block-split counts (Fig 6),
permutation strategies (Figs 4, 5), AMG restriction products (Table III,
Figs 10–12) and batched betweenness centrality (Figs 13–14).  Every point
of every sweep is one :class:`RunConfig`: a frozen, hashable record of
*everything* that determines an experiment's outcome, including which
**workload** runs (``squaring``, ``amg-restriction``, ``bc`` — see
:mod:`repro.experiments.workloads`) and the workload-specific parameters
(AMG phase and MIS-2 seed, BC source selection and batching).  A
:class:`ExperimentGrid` is the cartesian product the figures iterate over,
expanded into ``RunConfig`` records in a deterministic order so two
expansions of the same grid always produce the same run list (and
therefore the same JSONL, byte for byte).

``RunConfig.config_hash()`` is the cache key of the experiment engine: it
digests the canonical JSON form of the config plus a schema-version salt,
so records written by an incompatible engine version are never mistaken
for cache hits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence

from ..runtime import LAPTOP, PERLMUTTER, ZERO_COST, CostModel

__all__ = ["COST_MODELS", "RunConfig", "ExperimentGrid", "resolve_cost_model"]

#: bump when the record schema or the modelled-cost semantics change, so
#: stale JSONL caches miss instead of silently serving incompatible rows
#: (2: multi-workload engine — workload axis + AMG/BC parameters)
SCHEMA_VERSION = 2

#: named machine models a config can reference (configs must stay
#: JSON-serialisable, so they carry the name, not the CostModel object)
COST_MODELS: Dict[str, CostModel] = {
    "perlmutter": PERLMUTTER,
    "laptop": LAPTOP,
    "zero-cost": ZERO_COST,
}


#: post-v2 config fields elided from the canonical JSON at their default
#: value, keeping pre-existing config hashes (and record caches) stable
#: (PR4 added resident/square_k; PR5 added the triangles/mcl parameters)
_ELIDE_AT_DEFAULT: Dict[str, object] = {
    "resident": False,
    "square_k": None,
    "mask_mode": None,
    "mcl_inflation": None,
    "mcl_prune": None,
    "mcl_max_iters": None,
    # PR6: execution backend; "simulated" is the pre-PR6 behaviour, so
    # every pre-PR6 hash (and the store records cached under it) stays valid
    "backend": "simulated",
}

#: explicit values that are behaviourally identical to a field's default
#: (the executor resolves ``None`` to them), normalised to the default
#: before elision so equivalent configs share one hash — an explicit
#: ``mask_mode="late"`` must not cache-miss against an unset one
_HASH_EQUIVALENT_TO_DEFAULT: Dict[str, tuple] = {"mask_mode": ("late",)}


def resolve_cost_model(name: str) -> CostModel:
    """Look up a named cost model (the machines configs can reference)."""
    if name not in COST_MODELS:
        raise ValueError(
            f"unknown cost model {name!r}; available: {sorted(COST_MODELS)}"
        )
    return COST_MODELS[name]


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified experiment (one point of a sweep).

    Every field that can change the produced record is here; nothing else
    is.  The engine derives the cache key from these fields alone, which is
    what makes records reusable across processes, sessions and machines.
    The ``workload`` field selects which application runs (squaring, the
    AMG restriction triple product, batched betweenness centrality); the
    ``amg_*``/``mis_seed``/``right_algorithm``/``bc_*`` fields parameterise
    the non-squaring workloads and are ignored by ``squaring``.
    """

    #: built-in dataset analogue name (or a label when ``matrix`` is set)
    dataset: str
    algorithm: str = "1d"
    strategy: str = "none"
    nprocs: int = 16
    block_split: int = 2048
    #: permutation / partitioner seed
    seed: int = 0
    #: dataset generator scale factor
    scale: float = 0.5
    #: 3D layer count (None lets the algorithm pick)
    layers: Optional[int] = None
    #: OpenMP threads per process (None keeps the cost model's default)
    threads: Optional[int] = None
    #: named machine model (key of :data:`COST_MODELS`)
    cost_model: str = "perlmutter"
    #: optional MatrixMarket path overriding the built-in dataset
    matrix: Optional[str] = None
    #: which application runs: "squaring", "amg-restriction" or "bc"
    workload: str = "squaring"
    #: AMG phase: "rta" (RᵀA only) or "rtar" (RᵀA then (RᵀA)·R);
    #: None means "rtar" for the amg-restriction workload
    amg_phase: Optional[str] = None
    #: seed of the MIS-2 aggregation building the restriction operator
    mis_seed: int = 0
    #: algorithm of the AMG right multiplication (None → "outer-product")
    right_algorithm: Optional[str] = None
    #: number of BC source vertices (required for the bc workload)
    bc_sources: Optional[int] = None
    #: BC batch size (None → all sources in one batch)
    bc_batch: Optional[int] = None
    #: deterministic source selection: vertex ids 0, s, 2s, … (None → the
    #: sources are sampled uniformly at random with ``seed``)
    bc_source_stride: Optional[int] = None
    #: treat the adjacency matrix as directed
    bc_directed: bool = False
    #: run iterative workloads (bc) on one run-wide cluster with resident
    #: operands: A's distribution + window setup charged once per run
    #: instead of once per iteration (chained-squaring is always resident)
    resident: bool = False
    #: chained-squaring workload: number of squarings (final product A^(2^k))
    square_k: Optional[int] = None
    #: triangles workload: "late" (post-kernel mask filter, any driver) or
    #: "early" (1D only: the RDMA fetch plan is pruned against the mask's
    #: column support); None means "late"
    mask_mode: Optional[str] = None
    #: mcl workload: inflation exponent r (None → 2.0)
    mcl_inflation: Optional[float] = None
    #: mcl workload: pruning threshold (None → 1e-3)
    mcl_prune: Optional[float] = None
    #: mcl workload: iteration cap (None → 30)
    mcl_max_iters: Optional[int] = None
    #: execution backend: "simulated" (modelled-only, the default) or
    #: "shm" (real shared-memory transfers + a measured ledger); see
    #: :mod:`repro.runtime.backend`
    backend: str = "simulated"

    def __post_init__(self) -> None:
        # Checked here, once, so every entry point (CLI, grids, serve
        # submits, the python API) rejects a config that cannot run.
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1: {self.nprocs}")
        if self.block_split < 1:
            raise ValueError(f"block_split must be >= 1: {self.block_split}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive: {self.scale}")

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def canonical_json(self) -> str:
        """Canonical (sorted-key, compact) JSON form — the hash input.

        Fields added *after* schema v2 shipped (see
        :data:`_ELIDE_AT_DEFAULT`) drop out of the canonical form while they
        hold their default value, so every pre-existing config keeps its
        pre-existing hash, and old record stores stay valid caches.  A
        non-default value enters the JSON and discriminates the hash as
        usual.
        """
        data = self.as_dict()
        for key, equivalents in _HASH_EQUIVALENT_TO_DEFAULT.items():
            if data.get(key) in equivalents:
                data[key] = _ELIDE_AT_DEFAULT[key]
        for key, default in _ELIDE_AT_DEFAULT.items():
            if data.get(key) == default:
                data.pop(key, None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def _matrix_fingerprint(self) -> str:
        """Staleness component for ``matrix``-file configs.

        The path alone would keep serving stale cache hits after the file
        is regenerated with different contents, so the file's size and
        mtime enter the hash.  This makes matrix-path hashes machine-local
        — unlike dataset-name configs, whose records stay comparable
        across machines.
        """
        if not self.matrix:
            return ""
        try:
            stat = os.stat(self.matrix)
        except OSError:
            return "|matrix:missing"
        return f"|matrix:{stat.st_size}:{stat.st_mtime_ns}"

    def config_hash(self) -> str:
        """Stable 16-hex-digit cache key for this configuration.

        The digest covers *every* field — including workload parameters the
        selected workload ignores (e.g. ``bc_sources`` on a squaring
        config).  That can over-discriminate (two configs that would run
        identically hash apart and both execute), but it can never serve a
        wrong record, and it keeps the hash a pure function of the config's
        canonical JSON.
        """
        payload = f"v{SCHEMA_VERSION}:{self.canonical_json()}{self._matrix_fingerprint()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def with_updates(self, **changes) -> "RunConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ExperimentGrid:
    """A declarative sweep: the cartesian product of experiment axes.

    ``expand()`` iterates the axes in the declared order (datasets
    outermost, seeds innermost), so the run list — and any JSONL produced
    from it — is deterministic for a given grid.  ``workloads`` is a full
    grid axis; the workload-specific parameters (``amg_phase``,
    ``mis_seed``, ``right_algorithm``, ``bc_*``) are scalar across the grid
    and simply ride along on every config (the squaring workload ignores
    them).  The post-v2 axes (``resident``, ``square_k``, ``mask_mode``,
    ``mcl_*``) are applied only to the workloads that read them (``bc``,
    ``chained-squaring``, ``triangles`` and ``mcl`` respectively), so a
    mixed-workload grid never perturbs the hashes of configs the axis does
    not affect.
    """

    datasets: Sequence[str]
    workloads: Sequence[str] = ("squaring",)
    algorithms: Sequence[str] = ("1d",)
    strategies: Sequence[str] = ("none",)
    process_counts: Sequence[int] = (16,)
    block_splits: Sequence[int] = (2048,)
    seeds: Sequence[int] = (0,)
    layer_counts: Sequence[Optional[int]] = (None,)
    thread_counts: Sequence[Optional[int]] = (None,)
    scale: float = 0.5
    cost_model: str = "perlmutter"
    amg_phase: Optional[str] = None
    mis_seed: int = 0
    right_algorithm: Optional[str] = None
    bc_sources: Optional[int] = None
    bc_batch: Optional[int] = None
    bc_source_stride: Optional[int] = None
    bc_directed: bool = False
    resident: bool = False
    square_k: Optional[int] = None
    mask_mode: Optional[str] = None
    mcl_inflation: Optional[float] = None
    mcl_prune: Optional[float] = None
    mcl_max_iters: Optional[int] = None
    #: execution backends to run every config on (a full product axis —
    #: unlike the workload-specific parameters, every workload reads it)
    backends: Sequence[str] = ("simulated",)

    def expand(self) -> List[RunConfig]:
        configs = []
        for (dataset, workload, backend, algorithm, strategy, nprocs,
             block_split, layers, threads, seed) in (
            itertools.product(
                self.datasets,
                self.workloads,
                self.backends,
                self.algorithms,
                self.strategies,
                self.process_counts,
                self.block_splits,
                self.layer_counts,
                self.thread_counts,
                self.seeds,
            )
        ):
            configs.append(
                RunConfig(
                    dataset=dataset,
                    algorithm=algorithm,
                    strategy=strategy,
                    nprocs=int(nprocs),
                    block_split=int(block_split),
                    seed=int(seed),
                    scale=float(self.scale),
                    layers=layers,
                    threads=threads,
                    cost_model=self.cost_model,
                    workload=workload,
                    amg_phase=self.amg_phase,
                    mis_seed=self.mis_seed,
                    right_algorithm=self.right_algorithm,
                    bc_sources=self.bc_sources,
                    bc_batch=self.bc_batch,
                    bc_source_stride=self.bc_source_stride,
                    bc_directed=self.bc_directed,
                    # The post-v2 axes land only on the workloads that read
                    # them: stamping them grid-wide would push non-default
                    # values into the hashes of configs whose executors
                    # ignore the field, breaking store-cache reuse for
                    # mixed-workload grids.
                    resident=self.resident if workload == "bc" else False,
                    square_k=(
                        self.square_k if workload == "chained-squaring" else None
                    ),
                    mask_mode=self.mask_mode if workload == "triangles" else None,
                    mcl_inflation=(
                        self.mcl_inflation if workload == "mcl" else None
                    ),
                    mcl_prune=self.mcl_prune if workload == "mcl" else None,
                    mcl_max_iters=(
                        self.mcl_max_iters if workload == "mcl" else None
                    ),
                    backend=backend,
                )
            )
        return configs

    def __iter__(self) -> Iterator[RunConfig]:
        return iter(self.expand())

    def __len__(self) -> int:
        return (
            len(self.datasets)
            * len(self.workloads)
            * len(self.backends)
            * len(self.algorithms)
            * len(self.strategies)
            * len(self.process_counts)
            * len(self.block_splits)
            * len(self.layer_counts)
            * len(self.thread_counts)
            * len(self.seeds)
        )

"""Resident distributed operands — the state the prepare/execute pipeline reuses.

The paper's 1D design keeps ``B`` and ``C`` stationary and produces ``C``
already in the desired layout, so a chain of multiplies never has to touch a
global matrix between steps.  The original drivers threw that away: every
``multiply()`` took *global* operands, redistributed them from scratch, and
reassembled a global ``C`` at the end.  This module introduces the two
objects that make distributions first-class instead:

:class:`DistributedOperand`
    A matrix resident on the simulated cluster in a concrete layout — 1D
    column blocks, 1D row blocks, 2D grid blocks, or (for inputs that have
    not been distributed yet) a plain global matrix.  For the sparsity-aware
    1D algorithm the operand additionally carries the *exposed* RDMA windows
    and the allgathered column metadata, so repeated multiplies against the
    same stationary ``A`` (BC's frontier expansions, iterated squaring)
    charge the window creation + metadata allgather **once** instead of once
    per call.  The global matrix is assembled lazily and cached — a
    modelled-only experiment run never assembles at all.

:class:`PreparedMultiply`
    The output of ``DistributedSpGEMMAlgorithm.prepare(A, B, cluster)``:
    both operands resident (and, for 1D, exposed), ready for one or more
    ``execute`` calls.  ``multiply()`` is now the thin legacy wrapper
    ``execute(prepare(...))`` and is bit-identical to the pre-pipeline
    drivers.

Assembly of a global matrix is host work that was never charged to the
modelled ledgers, so laziness changes no modelled number — it only removes
host wall-clock and memory from chained and modelled-only runs.

Units and conservation: sizes (``nnz``) count stored matrix entries;
everything ``prepare`` charges for setup (window creation, the metadata
allgather) goes through the cluster's collectives and therefore satisfies
the per-phase ``bytes_sent == bytes_received`` invariant — making an
operand resident never unbalances a ledger.  Pure layout bookkeeping
(wrapping, coercion of an already-assembled matrix) is uncharged, matching
the paper's convention that inputs are distributed before timing starts.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distribution import (
    DistributedBlocks2D,
    DistributedColumns1D,
    DistributedRows1D,
)
from ..runtime import SimulatedCluster, WindowError
from ..sparse import CSCMatrix, as_csc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from ..runtime.window import RdmaWindow
    from .base import DistributedSpGEMMAlgorithm

__all__ = [
    "LAYOUT_COLUMNS_1D",
    "LAYOUT_ROWS_1D",
    "LAYOUT_BLOCKS_2D",
    "LAYOUT_GLOBAL",
    "DistributedOperand",
    "OperandCache",
    "PreparedMultiply",
    "as_operand",
    "coerce_columns_1d",
    "coerce_rows_1d",
    "estimate_operand_nbytes",
    "install_operand_cache",
    "operand_cache",
    "operand_source_tag",
    "tag_operand_source",
]

LAYOUT_COLUMNS_1D = "1d-columns"
LAYOUT_ROWS_1D = "1d-rows"
LAYOUT_BLOCKS_2D = "2d-blocks"
LAYOUT_GLOBAL = "global"

#: attribute carrying a matrix's provenance key, e.g. ``("dataset",
#: "hv15r", 0.5)`` — what makes an operand addressable by the cache
_SOURCE_TAG_ATTR = "_repro_operand_tag"


def tag_operand_source(matrix, tag: Tuple) -> None:
    """Stamp a matrix with its provenance key (dataset name/scale/...).

    Only tagged matrices participate in operand caching: the tag is what
    lets two independent runs recognise that they are distributing the
    *same* input.  Derived matrices (permuted, masked, squared) carry no
    tag and therefore never alias a cache entry.
    """
    try:
        setattr(matrix, _SOURCE_TAG_ATTR, tuple(tag))
    except (AttributeError, TypeError):  # slotted/frozen inputs: skip caching
        pass


def operand_source_tag(matrix) -> Optional[Tuple]:
    """The provenance key stamped by :func:`tag_operand_source` (or None)."""
    return getattr(matrix, _SOURCE_TAG_ATTR, None)


def estimate_operand_nbytes(value) -> int:
    """Best-effort resident size of a cached value, in bytes.

    Sums ``memory_bytes()`` over the local pieces of a distribution (or the
    matrix itself); the estimate drives LRU eviction, so being approximate
    is fine — being *zero* is not, hence the conservative fallback.
    """
    mem = getattr(value, "memory_bytes", None)
    if callable(mem):
        return int(mem())
    if isinstance(value, DistributedOperand):
        if value.layout == LAYOUT_GLOBAL:
            return estimate_operand_nbytes(value._global)
        return estimate_operand_nbytes(value.dist)
    locals_ = getattr(value, "locals_", None)
    if locals_ is not None:
        return sum(estimate_operand_nbytes(m) for m in locals_)
    blocks = getattr(value, "blocks", None)
    if isinstance(blocks, dict):
        return sum(estimate_operand_nbytes(b) for b in blocks.values())
    nnz = getattr(value, "nnz", None)
    if isinstance(nnz, (int, np.integer)):
        return int(nnz) * 16 or 1024
    return 1024


class OperandCache:
    """Process-wide LRU cache of resident operands, bounded by bytes.

    Keyed by provenance — ``("dataset", name, scale)`` for loaded inputs,
    ``("dist", source_tag, layout, nprocs, bounds)`` for distributions — so
    repeated workloads against the same input skip regeneration *and*
    redistribution.  Everything cached here is **host-side state**: reusing
    an entry never changes a modelled counter (distribution is uncharged
    layout bookkeeping; charged setup like 1D window exposure happens per
    run, cache or no cache).  The ``repro serve`` service installs one per
    process via :func:`install_operand_cache`; without an installed cache
    every hook below is a no-op, so batch runs behave exactly as before.

    Thread-safe: the service's serial lane and the asyncio handlers share
    one instance.

    Entries can be **pinned** (:meth:`pin` / :meth:`unpin`, or the
    :meth:`borrowing` context manager the engine wraps around an in-flight
    execute): a pinned entry is skipped by LRU eviction, so an operand a
    run is actively using can never be dropped mid-execute no matter how
    much a concurrent run inserts.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        self._pins: Dict[Tuple, int] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Tuple, value, nbytes: Optional[int] = None) -> bool:
        """Insert (refreshing LRU position); returns False if the value
        alone exceeds the budget and was not cached."""
        size = int(nbytes) if nbytes is not None else estimate_operand_nbytes(value)
        with self._lock:
            if size > self.max_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                # Oldest unpinned entry that is not the one just inserted;
                # when everything else is borrowed by an in-flight execute
                # the cache temporarily overshoots its budget instead of
                # invalidating an operand somebody is using.
                victim = next(
                    (
                        k for k in self._entries
                        if k != key and not self._pins.get(k)
                    ),
                    None,
                )
                if victim is None:
                    break
                _, evicted_size = self._entries.pop(victim)
                self._bytes -= evicted_size
                self.evictions += 1
            return True

    def pin(self, key: Tuple) -> None:
        """Protect ``key`` from eviction until a matching :meth:`unpin`."""
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: Tuple) -> None:
        with self._lock:
            count = self._pins.get(key, 0) - 1
            if count <= 0:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count

    @contextlib.contextmanager
    def borrowing(self, key: Tuple):
        """Context manager pinning ``key`` for the duration of a borrow."""
        self.pin(key)
        try:
            yield
        finally:
            self.unpin(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pins.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pinned": len(self._pins),
            }


_OPERAND_CACHE: Optional[OperandCache] = None
_OPERAND_CACHE_LOCK = threading.Lock()


def install_operand_cache(cache: Optional[OperandCache]) -> Optional[OperandCache]:
    """Install (or, with ``None``, remove) the process-wide operand cache.

    Returns the previously-installed cache so callers can restore it.
    """
    global _OPERAND_CACHE
    with _OPERAND_CACHE_LOCK:
        previous = _OPERAND_CACHE
        _OPERAND_CACHE = cache
        return previous


def operand_cache() -> Optional[OperandCache]:
    """The installed process-wide cache, or ``None`` (hooks disabled)."""
    return _OPERAND_CACHE


@dataclass
class DistributedOperand:
    """A sparse matrix resident on the cluster in a concrete layout.

    Exactly one of ``dist`` (a layout object) or ``_global`` (a plain global
    matrix, layout ``"global"``) backs the operand; ``global_matrix()``
    assembles lazily from the layout and caches the result.

    The three ``window``/``rank_nonzero_cols``/``rank_col_prefix`` fields are
    the sparsity-aware 1D algorithm's resident state (Algorithm 1 lines 1–2):
    the per-rank exposed row-id/value windows and the allgathered nonzero
    column ids ``D`` with their nnz prefix sums.  They are attached by
    :meth:`SparsityAware1D.prepare` the first time the operand is used as the
    stationary ``A`` and reused — uncharged — on every later multiply.
    """

    layout: str
    dist: Optional[object] = None
    #: exposed RDMA windows over the local row-id/value arrays (1D A only)
    window: Optional["RdmaWindow"] = None
    #: per-rank global ids of nonzero columns (the paper's ``D`` vector)
    rank_nonzero_cols: Optional[List[np.ndarray]] = None
    #: per-rank nnz prefix sums over those columns
    rank_col_prefix: Optional[List[np.ndarray]] = None
    _global: Optional[CSCMatrix] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.layout == LAYOUT_GLOBAL:
            if self._global is None:
                raise ValueError("global-layout operand requires the matrix")
        elif self.dist is None:
            raise ValueError(f"layout {self.layout!r} requires a distribution object")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, A) -> "DistributedOperand":
        """Wrap an undistributed global matrix (drivers distribute on demand)."""
        return cls(layout=LAYOUT_GLOBAL, _global=as_csc(A))

    @classmethod
    def columns_1d(cls, dist: DistributedColumns1D) -> "DistributedOperand":
        return cls(layout=LAYOUT_COLUMNS_1D, dist=dist)

    @classmethod
    def rows_1d(cls, dist: DistributedRows1D) -> "DistributedOperand":
        return cls(layout=LAYOUT_ROWS_1D, dist=dist)

    @classmethod
    def blocks_2d(cls, dist: DistributedBlocks2D) -> "DistributedOperand":
        return cls(layout=LAYOUT_BLOCKS_2D, dist=dist)

    # ------------------------------------------------------------------
    # Shape / size without assembly
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        if self.layout == LAYOUT_GLOBAL:
            return self._global.shape
        return (self.dist.nrows, self.dist.ncols)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Stored entries, computed from the distributed pieces.

        Every layout's assembly is a pure concatenation over disjoint index
        ranges (explicit zeros are retained, duplicates are impossible across
        blocks), so this equals ``global_matrix().nnz`` without assembling —
        pinned by the pipeline tests for all six drivers.
        """
        if self.layout == LAYOUT_GLOBAL:
            return self._global.nnz
        if self.layout == LAYOUT_BLOCKS_2D:
            return sum(blk.nnz for blk in self.dist.blocks.values())
        return self.dist.nnz

    @property
    def exposed(self) -> bool:
        """Were the 1D RDMA windows + metadata already created (setup charged)?"""
        return self.window is not None

    @property
    def assembled(self) -> bool:
        """Has the global matrix been materialised (lazily or at construction)?"""
        return self._global is not None

    # ------------------------------------------------------------------
    def global_matrix(self) -> CSCMatrix:
        """Assemble (lazily, cached) the global matrix from the layout."""
        if self._global is None:
            self._global = self.dist.to_global()
        return self._global

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedOperand(layout={self.layout!r}, shape={self.shape}, "
            f"nnz={self.nnz}, exposed={self.exposed}, assembled={self.assembled})"
        )


@dataclass
class PreparedMultiply:
    """Resident operands bound to an algorithm and a cluster, ready to run.

    ``extras`` carries whatever per-algorithm state ``prepare`` computed
    beyond the two operands (e.g. the 3D layer split, which distributes both
    operands jointly).

    ``mask``, when set, is a *pattern* mask resident in the driver's output
    layout: ``execute`` computes ``C = (A·B) ⊙ M`` by intersecting each
    rank's local product with its local mask piece after the kernel — a
    purely local filter, never charged any communication (see
    :mod:`repro.core.masking`).  ``mask_mode`` is ``"late"`` (every driver)
    or ``"early"`` (1D only: the fetch plan is additionally pruned against
    the mask's column support, reducing modelled volume).
    """

    algorithm: "DistributedSpGEMMAlgorithm"
    cluster: SimulatedCluster
    a: DistributedOperand
    b: DistributedOperand
    extras: Dict[str, object] = field(default_factory=dict)
    #: optional pattern mask, resident in the output layout
    mask: Optional[DistributedOperand] = None
    #: "late" (post-kernel filter) or "early" (1D fetch pruning + filter)
    mask_mode: str = "late"

    def execute(self):
        """Run the multiply (delegates to ``algorithm.execute(self)``).

        Refuses to run against a cluster that has been shut down: the
        operands' windows (and, on real backends, the transport) are gone,
        so executing would otherwise fail deep inside the ledger with an
        unrelated-looking error.  This extends the wrong-cluster guard in
        ``prepare`` to the cluster's lifetime.
        """
        if getattr(self.cluster, "closed", False):
            raise WindowError(
                "cannot execute a PreparedMultiply on a shut-down "
                f"{getattr(self.cluster, 'backend_name', 'simulated')!r} backend "
                "cluster; prepare and execute on a live cluster (the backend "
                "was shut down after this multiply was prepared)"
            )
        return self.algorithm.execute(self)


# ----------------------------------------------------------------------
# Coercion helpers shared by the drivers
# ----------------------------------------------------------------------

def as_operand(A) -> DistributedOperand:
    """Wrap ``A`` as an operand (pass-through when it already is one)."""
    if isinstance(A, DistributedOperand):
        return A
    if isinstance(A, DistributedColumns1D):
        return DistributedOperand.columns_1d(A)
    if isinstance(A, DistributedRows1D):
        return DistributedOperand.rows_1d(A)
    if isinstance(A, DistributedBlocks2D):
        return DistributedOperand.blocks_2d(A)
    return DistributedOperand.from_global(A)


def _bounds_match(requested: Optional[Sequence[Tuple[int, int]]], actual) -> bool:
    if requested is None:
        return True
    return [(int(s), int(e)) for s, e in requested] == [
        (int(s), int(e)) for s, e in actual
    ]


def _cached_distribution(A_global, layout: str, nprocs: int, bounds, builder):
    """Build (or reuse) a distribution of a tagged source matrix.

    Distribution is a pure function of (matrix, nprocs, bounds) and is
    never charged to a ledger — the paper's convention is that inputs are
    distributed before timing starts — so serving it from the installed
    :class:`OperandCache` elides host work only.  Untagged matrices (the
    common batch path) always rebuild.
    """
    cache = operand_cache()
    tag = operand_source_tag(A_global)
    if cache is None or tag is None:
        return builder()
    key = (
        "dist",
        tag,
        layout,
        int(nprocs),
        None if bounds is None else tuple((int(s), int(e)) for s, e in bounds),
    )
    dist = cache.get(key)
    if dist is None:
        dist = builder()
        cache.put(key, dist)
    return dist


def coerce_columns_1d(
    A,
    nprocs: int,
    *,
    bounds: Optional[Sequence[Tuple[int, int]]] = None,
) -> DistributedOperand:
    """Resolve ``A`` to a 1D column-distributed operand over ``nprocs`` ranks.

    A resident column operand is reused in place when its process count (and,
    if explicitly requested, its block bounds) match — this is what lets a
    chained multiply feed ``C`` straight back in without touching a global
    matrix.  Anything else falls back to distributing the (lazily assembled)
    global matrix exactly like the pre-pipeline drivers did.
    """
    op = as_operand(A)
    if (
        op.layout == LAYOUT_COLUMNS_1D
        and op.dist.nprocs == nprocs
        and _bounds_match(bounds, op.dist.bounds)
    ):
        return op
    A_global = op.global_matrix()
    return DistributedOperand(
        layout=LAYOUT_COLUMNS_1D,
        dist=_cached_distribution(
            A_global, LAYOUT_COLUMNS_1D, nprocs, bounds,
            lambda: DistributedColumns1D.from_global(A_global, nprocs, bounds=bounds),
        ),
        # The global form was just materialised (or given) — keep it cached so
        # drivers that still need it reuse the identical object.
        _global=A_global,
    )


def coerce_rows_1d(
    A,
    nprocs: int,
    *,
    bounds: Optional[Sequence[Tuple[int, int]]] = None,
) -> DistributedOperand:
    """Row-block analogue of :func:`coerce_columns_1d` (block-row drivers)."""
    op = as_operand(A)
    if (
        op.layout == LAYOUT_ROWS_1D
        and op.dist.nprocs == nprocs
        and _bounds_match(bounds, op.dist.bounds)
    ):
        return op
    A_global = op.global_matrix()
    return DistributedOperand(
        layout=LAYOUT_ROWS_1D,
        dist=_cached_distribution(
            A_global, LAYOUT_ROWS_1D, nprocs, bounds,
            lambda: DistributedRows1D.from_global(A_global, nprocs, bounds=bounds),
        ),
        _global=A_global,
    )

"""The simulated distributed-memory cluster.

:class:`SimulatedCluster` stands in for ``MPI_COMM_WORLD`` + the physical
machine: it knows the number of ranks, the machine cost model, and it owns
the :class:`~repro.runtime.stats.PhaseLedger` into which every communication
primitive and every explicitly-charged local computation records its cost.

Why a simulator instead of mpi4py
---------------------------------
The evaluation of the paper is about distributed-memory behaviour at 16-1024
processes on a Slingshot network.  This environment has neither an MPI
implementation nor multiple nodes, so launching real ranks would neither be
possible nor informative.  Instead the distributed algorithms in
:mod:`repro.core` are written in an explicit SPMD style — *for each rank i:
do what rank i would do* — against this cluster object.  All data that
"moves" does so through :class:`~repro.runtime.window.RdmaWindow` or
:class:`~repro.runtime.communicator.Communicator`, so the communication
volume, message counts and modelled times reported by the benchmark harness
are exactly those of the real algorithm at that process count.

Determinism: given the same inputs and parameters, every simulated run
produces bit-identical ledgers, which makes the benchmark harness and the
property-based tests reproducible.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from .communicator import Communicator
from .costmodel import CostModel, PERLMUTTER
from .stats import PhaseLedger, RankStats
from .window import RdmaWindow

__all__ = ["SimulatedCluster", "MemoryLimitExceeded"]


class MemoryLimitExceeded(MemoryError):
    """Raised when a rank's modelled memory exceeds the cost model's capacity.

    Used to reproduce out-of-memory behaviour such as the 2D algorithm
    failing the hv15r backward sweep in Fig. 14.
    """

    def __init__(self, rank: int, needed: int, capacity: int):
        super().__init__(
            f"rank {rank} needs {needed} bytes but capacity is {capacity} bytes"
        )
        self.rank = rank
        self.needed = needed
        self.capacity = capacity


@dataclass
class SimulatedCluster:
    """A P-rank simulated distributed-memory machine.

    Parameters
    ----------
    nprocs:
        Number of simulated MPI processes.
    cost_model:
        The α–β–γ machine model; defaults to the Perlmutter-like preset.
    name:
        Optional label carried into reports.
    """

    nprocs: int
    cost_model: CostModel = PERLMUTTER
    name: str = "sim"
    #: assert the per-collective conservation invariant (bytes sent ==
    #: bytes received per group) inside every communication primitive;
    #: ``None`` defers to the ``REPRO_CHECK_CONSERVATION`` environment
    #: variable (default: enabled — the check is two numpy sums per call).
    check_conservation: Optional[bool] = None
    ledger: PhaseLedger = field(init=False)
    _current_phase: str = field(default="default", init=False)
    _phase_prefix: str = field(default="", init=False)
    _stats_cache: Optional[tuple] = field(default=None, init=False, repr=False)

    #: registry name of the backend this cluster runs on (see
    #: :mod:`repro.runtime.backend`); subclasses override.
    backend_name = "simulated"
    #: measured-transfer ledger; only non-simulated backends carry one.
    measured_ledger = None
    _closed = False

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.ledger = PhaseLedger(nprocs=self.nprocs)
        self.comm = Communicator(self, check_conservation=self.check_conservation)

    # ------------------------------------------------------------------
    # Ranks and phases
    # ------------------------------------------------------------------
    def ranks(self) -> range:
        """Iterate over rank ids (used by the SPMD-style algorithm loops)."""
        return range(self.nprocs)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Enter a named bulk-synchronous phase; costs recorded inside go to it."""
        name = self._phase_prefix + name
        previous = self._current_phase
        self._current_phase = name
        self.ledger.phase(name)  # materialise even if nothing gets charged
        try:
            yield
        finally:
            self._current_phase = previous

    @contextmanager
    def phase_scope(self, prefix: str) -> Iterator[None]:
        """Prefix every phase entered inside the block with ``prefix``.

        The resident pipeline runs several multiplies on one cluster; giving
        each multiply a unique scope (``"it3:"``, ``"sq1:"``, …) keeps their
        phases apart in the run-wide ledger so per-multiply metrics can be
        sliced back out with :meth:`PhaseLedger.subset`.  Scopes nest.
        """
        previous = self._phase_prefix
        self._phase_prefix = previous + prefix
        try:
            yield
        finally:
            self._phase_prefix = previous

    @property
    def phase_prefix(self) -> str:
        """The active phase-name prefix ("" outside any :meth:`phase_scope`)."""
        return self._phase_prefix

    @property
    def current_phase(self) -> str:
        return self._current_phase

    def stats(self, rank: int) -> RankStats:
        """Per-rank stats record of the *current* phase."""
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} outside 0..{self.nprocs - 1}")
        # Cache the current phase's stats list: the charge paths resolve a
        # rank on every event, and the phase only changes at phase()
        # boundaries.  The list object is stable once the ledger creates it,
        # so keying the cache on the phase name is sufficient.
        cache = self._stats_cache
        if cache is not None and cache[0] == self._current_phase:
            return cache[1][rank]
        stats_list = self.ledger.phase(self._current_phase)
        self._stats_cache = (self._current_phase, stats_list)
        return stats_list[rank]

    # ------------------------------------------------------------------
    # Charging local work
    # ------------------------------------------------------------------
    def charge_compute(self, rank: int, flops: int) -> None:
        """Charge ``flops`` sparse flops of local computation to ``rank``."""
        st = self.stats(rank)
        st.flops += int(flops)
        st.charge_time("comp", self.cost_model.compute_cost(int(flops)))

    def charge_other_bytes(self, rank: int, nbytes: int) -> None:
        """Charge auxiliary data-structure work proportional to ``nbytes`` to ``rank``."""
        self.stats(rank).charge_time("other", self.cost_model.pack_cost(int(nbytes)))

    def charge_memory(self, rank: int, nbytes: int) -> None:
        """Record a rank's modelled memory high-water mark; raise if over capacity."""
        st = self.stats(rank)
        st.note_memory(int(nbytes))
        cap = self.cost_model.memory_capacity_bytes
        if cap and nbytes > cap:
            raise MemoryLimitExceeded(rank, int(nbytes), cap)

    # ------------------------------------------------------------------
    # Batched charging (one vectorised pass instead of a per-rank loop)
    # ------------------------------------------------------------------
    def _per_rank_array(self, values, what: str) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        if arr.shape != (self.nprocs,):
            raise ValueError(
                f"{what} expects one value per rank (shape ({self.nprocs},)), "
                f"got shape {arr.shape}"
            )
        return arr

    def charge_compute_bulk(self, flops_per_rank) -> None:
        """Charge per-rank flops to the current phase in one vectorised pass.

        Bit-identical to calling :meth:`charge_compute` once per rank: the
        cost model's arithmetic is applied elementwise and ranks with zero
        flops are no-ops either way.  This is the batched path the SPMD
        per-rank loops use so charging stays O(numpy) at P = 1024.
        """
        arr = self._per_rank_array(flops_per_rank, "charge_compute_bulk")
        costs = self.cost_model.compute_cost_bulk(arr)
        stats_list = self.ledger.phase(self._current_phase)
        for r in np.nonzero(arr)[0]:
            st = stats_list[r]
            st.flops += int(arr[r])
            st.time["comp"] += float(costs[r])

    def charge_compute_and_memory_bulk(self, ranks, flops, nbytes) -> None:
        """Fused :meth:`charge_compute` + :meth:`charge_memory` for many ranks.

        ``ranks``/``flops``/``nbytes`` are aligned, one entry per charge.  The
        charges land in the given order with the per-call arithmetic of the
        scalar methods, so every counter is bit-identical to looping them; an
        over-capacity entry raises after it is charged, leaving later entries
        uncharged.  This is how a SUMMA stage charges all its blocks at once.
        """
        costs = self.cost_model.compute_cost_bulk(flops).tolist()
        cap = self.cost_model.memory_capacity_bytes
        stats_list = self.ledger.phase(self._current_phase)
        for rank, fl, cost, nb in zip(
            np.asarray(ranks).tolist(), np.asarray(flops).tolist(), costs,
            np.asarray(nbytes).tolist(),
        ):
            st = stats_list[rank]
            st.flops += fl
            st.time["comp"] += cost
            if nb > st.peak_memory_bytes:
                st.peak_memory_bytes = nb
            if cap and nb > cap:
                raise MemoryLimitExceeded(rank, nb, cap)

    def charge_other_bytes_bulk(self, nbytes_per_rank) -> None:
        """Vectorised :meth:`charge_other_bytes` (one value per rank)."""
        arr = self._per_rank_array(nbytes_per_rank, "charge_other_bytes_bulk")
        costs = self.cost_model.pack_cost_bulk(arr)
        stats_list = self.ledger.phase(self._current_phase)
        for r in np.nonzero(arr)[0]:
            stats_list[r].time["other"] += float(costs[r])

    def charge_memory_bulk(self, nbytes_per_rank) -> None:
        """Vectorised :meth:`charge_memory`; raises for the lowest offending rank."""
        arr = self._per_rank_array(nbytes_per_rank, "charge_memory_bulk")
        cap = self.cost_model.memory_capacity_bytes
        stats_list = self.ledger.phase(self._current_phase)
        for r in np.nonzero(arr)[0]:
            stats_list[r].note_memory(int(arr[r]))
            if cap and arr[r] > cap:
                raise MemoryLimitExceeded(int(r), int(arr[r]), cap)

    @contextmanager
    def measured(self, rank: int, category: str) -> Iterator[None]:
        """Measure real wall-clock of the enclosed block into ``rank``'s stats.

        The modelled time is what the figures use; measured time is kept
        alongside it so tests can assert the local kernels really ran.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats(rank).charge_measured(category, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def create_window(self, exposed: Dict[int, Dict[str, np.ndarray]]) -> RdmaWindow:
        """Create an RDMA window over per-rank exposed arrays (``MPI_Win_create``)."""
        return RdmaWindow(cluster=self, exposed=exposed)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def elapsed_time(self) -> float:
        """Modelled elapsed seconds accumulated so far (Σ over phases of slowest rank)."""
        return self.ledger.elapsed_time()

    def assert_conservation(self) -> None:
        """Assert the ledger-wide byte balance (delegates to the PhaseLedger)."""
        self.ledger.assert_conserved()

    def reset(self) -> None:
        """Clear all recorded phases (fresh ledger, same machine)."""
        self.ledger = PhaseLedger(nprocs=self.nprocs)
        self._current_phase = "default"
        self._phase_prefix = ""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Has :meth:`shutdown` been called?  Closed clusters refuse new work."""
        return self._closed

    def shutdown(self) -> None:
        """Release backend resources and mark the cluster closed.

        For the simulator this is pure bookkeeping (there is nothing to
        release), but executing a :class:`~repro.core.pipeline.PreparedMultiply`
        against a closed cluster raises a clear error instead of failing deep
        inside the ledger; backends with real resources (the shm transport's
        peer process and segments) override this to release them first.
        Idempotent; recorded ledgers stay readable after shutdown.
        """
        self._closed = True

    def __enter__(self) -> "SimulatedCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        by_cat = self.ledger.elapsed_time_by_category()
        return {
            "nprocs": float(self.nprocs),
            "elapsed_time": self.ledger.elapsed_time(),
            "comm_time": by_cat["comm"],
            "comp_time": by_cat["comp"],
            "other_time": by_cat["other"],
            "total_bytes": float(self.ledger.total_bytes()),
            "total_messages": float(self.ledger.total_messages()),
            "total_rdma_gets": float(self.ledger.total_rdma_gets()),
            "total_flops": float(self.ledger.total_flops()),
            "load_imbalance": self.ledger.load_imbalance(),
            "max_peak_memory": float(self.ledger.max_peak_memory()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedCluster(nprocs={self.nprocs}, name={self.name!r})"

"""Common interface and result records for the distributed SpGEMM algorithms.

Every algorithm in :mod:`repro.core` implements the same two-step contract:

``prepare(A, B, cluster) -> PreparedMultiply``
    Resolve both operands to resident :class:`~repro.core.pipeline.DistributedOperand`
    instances (distributing global inputs, reusing already-resident ones) and
    charge whatever setup the algorithm needs — for the sparsity-aware 1D
    algorithm that is the window creation + metadata allgather, charged only
    the *first* time an operand is used as the stationary ``A``.

``execute(prepared) -> SpGEMMResult``
    Run the communication and compute phases, recording every byte and
    message in the cluster ledger, and return a result whose output ``C``
    stays *distributed* — the global matrix is assembled lazily on first
    access and never at all in modelled-only experiment runs.

``multiply(A, B, cluster)`` is the backward-compatible one-shot wrapper
(``execute(prepare(...))``); every modelled number it produces is
bit-identical to the pre-pipeline drivers.  The benchmark harness only ever
talks to this interface, so 1D / 2D / 3D / outer-product variants are
interchangeable — the same property the paper gets from implementing
everything inside CombBLAS.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..runtime import PhaseLedger, SimulatedCluster
from ..sparse import CSCMatrix
from .pipeline import DistributedOperand, PreparedMultiply, as_operand

__all__ = ["SpGEMMResult", "DistributedSpGEMMAlgorithm"]


@dataclass
class SpGEMMResult:
    """Output of one distributed SpGEMM execution.

    The product is carried in distributed form (``distributed_c``); the
    global matrix is assembled lazily through the :attr:`C` property and
    cached.  Code that only reads modelled counters (the experiment engine,
    the figures) therefore never pays for — or allocates — a global output.
    """

    #: the cost ledger recorded during the run
    ledger: PhaseLedger
    #: the algorithm name ("1d-sparsity-aware", "2d-summa", ...)
    algorithm: str
    #: number of simulated processes
    nprocs: int
    #: free-form extras (block counts, layers, CV/memA ratio, ...)
    info: Dict[str, float] = field(default_factory=dict)
    #: the distributed product (C in the layout the algorithm produces)
    distributed_c: Optional[DistributedOperand] = None
    #: measured-transfer ledger of the producing cluster
    #: (:class:`~repro.runtime.shm.MeasuredLedger`); ``None`` on the
    #: simulated backend, attached post-hoc by the app-level runners.
    measured: Optional[object] = field(default=None, repr=False)
    #: lazily assembled global product (filled on first access of ``C``)
    _global_c: Optional[CSCMatrix] = field(default=None, repr=False)
    #: cached one-sweep ledger aggregates (see PhaseLedger.scalar_summary)
    _summary: Optional[Dict[str, object]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.distributed_c is None and self._global_c is None:
            raise ValueError("SpGEMMResult needs a distributed or global C")

    # Output access --------------------------------------------------------
    @property
    def C(self) -> CSCMatrix:
        """The global product, assembled (and cached) on first access."""
        if self._global_c is None:
            self._global_c = self.distributed_c.global_matrix()
        return self._global_c

    @property
    def assembled(self) -> bool:
        """Has the global ``C`` been materialised?  (Assembly is lazy.)"""
        return self._global_c is not None

    @property
    def output_nnz(self) -> int:
        """nnz of the product, computed without assembling the global C."""
        if self._global_c is not None:
            return self._global_c.nnz
        return self.distributed_c.nnz

    # Convenience accessors used throughout the harness -----------------
    def _ledger_summary(self) -> Dict[str, object]:
        """One-sweep ledger aggregates, computed on first access and cached.

        The record extraction reads seven scalar counters per run; caching
        the combined sweep keeps that O(phases × ranks) once per result
        instead of once per counter.  Values are bit-identical to the
        individual :class:`~repro.runtime.PhaseLedger` methods.
        """
        if self._summary is None:
            self._summary = self.ledger.scalar_summary()
        return self._summary

    @property
    def elapsed_time(self) -> float:
        """Modelled elapsed seconds (Σ over phases of the slowest rank)."""
        return self._ledger_summary()["elapsed_time"]

    @property
    def comm_time(self) -> float:
        return self._ledger_summary()["elapsed_time_by_category"]["comm"]

    @property
    def comp_time(self) -> float:
        return self._ledger_summary()["elapsed_time_by_category"]["comp"]

    @property
    def other_time(self) -> float:
        return self._ledger_summary()["elapsed_time_by_category"]["other"]

    @property
    def communication_volume(self) -> int:
        """Total bytes received across all ranks and phases."""
        return self._ledger_summary()["total_bytes"]

    @property
    def message_count(self) -> int:
        return self._ledger_summary()["total_messages"]

    @property
    def rdma_gets(self) -> int:
        return self._ledger_summary()["total_rdma_gets"]

    @property
    def load_imbalance(self) -> float:
        return self.ledger.load_imbalance()


class DistributedSpGEMMAlgorithm(abc.ABC):
    """Abstract base class for distributed SpGEMM algorithms."""

    #: short identifier used by the registry and the reports
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        **kwargs,
    ) -> PreparedMultiply:
        """Make both operands resident on ``cluster`` and charge any setup.

        ``A`` and ``B`` may be global matrices, layout objects, or resident
        :class:`DistributedOperand` instances from an earlier multiply —
        already-resident operands in the algorithm's layout are reused
        without redistribution, and (for the 1D algorithm) an operand whose
        windows are already exposed skips the setup phase entirely.
        """

    @abc.abstractmethod
    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        """Run the multiply on prepared operands, returning a distributed C."""

    def prepare_operand(self, A, cluster: SimulatedCluster) -> DistributedOperand:
        """Make ``A`` resident for repeated multiplies against it.

        The default keeps the operand as-is (drivers distribute on demand);
        the sparsity-aware 1D algorithm overrides this to distribute *and*
        expose the RDMA windows, charging the setup phase once.
        """
        return as_operand(A)

    def multiply(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        **kwargs,
    ) -> SpGEMMResult:
        """Compute ``C = A·B`` on the given simulated cluster.

        Backward-compatible one-shot wrapper: ``execute(prepare(...))``.
        Chained workloads should call ``prepare``/``execute`` directly so the
        stationary operand's setup is charged once instead of per call.
        """
        return self.execute(self.prepare(A, B, cluster, **kwargs))

    def __call__(self, A, B, cluster: SimulatedCluster, **kwargs) -> SpGEMMResult:
        return self.multiply(A, B, cluster, **kwargs)

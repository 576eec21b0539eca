"""Per-rank accounting of communication, computation and "other" work.

The paper's breakdown figures (Figs 4, 8, 10) report, for every MPI process,
three categories:

* **communication** — RDMA requests fetching remote ``A`` data (or, for the
  baselines, the SUMMA broadcasts / AllToAll exchanges),
* **computation** — the local SpGEMM,
* **other** — creation/deletion of auxiliary arrays and data structures
  (building the local DCSC object, exchanging the nonzero-column metadata of
  ``A_i``, packing the compacted Ã …).

:class:`RankStats` mirrors those categories and additionally counts messages,
bytes and flops so communication-volume figures (Figs 5, 6) come from the
same objects.  :class:`PhaseLedger` groups the per-rank numbers into named
bulk-synchronous phases so elapsed time can be modelled as
``Σ_phases max_ranks(phase time)``.

Conservation invariant
----------------------
Every byte charged as *sent* by some rank must be charged as *received* by
another rank (and vice versa): sends, collectives and RDMA Gets all move data
between two ledger entries of the same phase.  :meth:`PhaseLedger.conservation_report`
exposes the per-phase balance and :meth:`PhaseLedger.assert_conserved` turns a
violation into a hard error, which is how the test suite pins the bookkeeping
of every collective and every distributed algorithm.

Batched charging
----------------
The distributed algorithms execute O(P²) logical messages per phase; charging
them one Python attribute update at a time dominates wall-clock at high
process counts.  :meth:`RankStats.charge_bulk` applies a whole phase's worth
of counters to one rank in a single call, and
:meth:`PhaseLedger.charge_bulk` scatters numpy arrays of per-event charges
onto the ranks of a phase with ``np.add.at`` so the Python-level work is
O(ranks), not O(messages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["RankStats", "PhaseLedger", "CATEGORIES"]

CATEGORIES = ("comm", "comp", "other")


@dataclass
class RankStats:
    """Event counters and modelled times for one simulated rank.

    Units: ``time``/``measured`` are **seconds** (modelled α–β–γ seconds
    and measured host wall-clock respectively — never mixed), byte
    counters are **bytes** of wire payload, ``flops`` are sparse
    multiply-adds, ``peak_memory_bytes`` is a high-water mark in bytes.
    Conservation expectation: summed over the ranks of one phase,
    ``bytes_sent == bytes_received`` — every primitive that moves bytes
    charges both sides in the same phase.
    """

    rank: int
    #: modelled seconds by category (literal spelling of ``CATEGORIES`` —
    #: a dict literal is much cheaper than a comprehension and P×phases
    #: instances are created per run)
    time: Dict[str, float] = field(
        default_factory=lambda: {"comm": 0.0, "comp": 0.0, "other": 0.0}
    )
    #: measured wall-clock seconds by category (real Python work that ran)
    measured: Dict[str, float] = field(
        default_factory=lambda: {"comm": 0.0, "comp": 0.0, "other": 0.0}
    )
    #: number of point-to-point / one-sided messages this rank originated
    messages_sent: int = 0
    #: number of RDMA Get operations this rank issued
    rdma_gets: int = 0
    #: bytes this rank sent (origin side of sends; target side of Gets)
    bytes_sent: int = 0
    #: bytes this rank received (fetched via Gets or received via sends)
    bytes_received: int = 0
    #: sparse flops executed by this rank's local kernels
    flops: int = 0
    #: peak modelled memory in bytes (local inputs + fetched data + output)
    peak_memory_bytes: int = 0

    @classmethod
    def fresh(cls, rank: int) -> "RankStats":
        """Zeroed instance, skipping dataclass-init overhead.

        Identical to ``RankStats(rank=rank)``; the ledger creates P of these
        per phase, which makes the generated ``__init__`` (plus two factory
        calls) measurable at P = 1024.
        """
        st = object.__new__(cls)
        st.rank = rank
        st.time = {"comm": 0.0, "comp": 0.0, "other": 0.0}
        st.measured = {"comm": 0.0, "comp": 0.0, "other": 0.0}
        st.messages_sent = 0
        st.rdma_gets = 0
        st.bytes_sent = 0
        st.bytes_received = 0
        st.flops = 0
        st.peak_memory_bytes = 0
        return st

    def charge_time(self, category: str, seconds: float) -> None:
        if category not in self.time:
            raise KeyError(f"unknown time category {category!r}")
        self.time[category] += float(seconds)

    def charge_bulk(
        self,
        *,
        messages: int = 0,
        rdma_gets: int = 0,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        comm_seconds: float = 0.0,
        comp_seconds: float = 0.0,
        other_seconds: float = 0.0,
        flops: int = 0,
    ) -> None:
        """Apply a whole batch of charges to this rank in one call.

        The batched communication primitives aggregate an entire phase's
        messages into per-rank totals (with numpy) and land them here, so the
        Python-level cost is one call per rank instead of one per message.
        """
        self.messages_sent += int(messages)
        self.rdma_gets += int(rdma_gets)
        self.bytes_sent += int(bytes_sent)
        self.bytes_received += int(bytes_received)
        self.time["comm"] += float(comm_seconds)
        self.time["comp"] += float(comp_seconds)
        self.time["other"] += float(other_seconds)
        self.flops += int(flops)

    def charge_measured(self, category: str, seconds: float) -> None:
        if category not in self.measured:
            raise KeyError(f"unknown time category {category!r}")
        self.measured[category] += float(seconds)

    def note_memory(self, nbytes: int) -> None:
        self.peak_memory_bytes = max(self.peak_memory_bytes, int(nbytes))

    @property
    def total_time(self) -> float:
        """Total modelled time across categories."""
        return float(sum(self.time.values()))

    @property
    def comm_time(self) -> float:
        return self.time["comm"]

    @property
    def comp_time(self) -> float:
        return self.time["comp"]

    @property
    def other_time(self) -> float:
        return self.time["other"]

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the reporting helpers."""
        out: Dict[str, float] = {f"time_{k}": v for k, v in self.time.items()}
        out.update({f"measured_{k}": v for k, v in self.measured.items()})
        out.update(
            {
                "messages_sent": float(self.messages_sent),
                "rdma_gets": float(self.rdma_gets),
                "bytes_sent": float(self.bytes_sent),
                "bytes_received": float(self.bytes_received),
                "flops": float(self.flops),
                "peak_memory_bytes": float(self.peak_memory_bytes),
            }
        )
        return out


@dataclass
class PhaseLedger:
    """Collection of per-rank stats grouped into named BSP phases.

    A *phase* is a stretch of the algorithm delimited by (implicit) global
    synchronisation: metadata exchange, remote fetch, local multiply, result
    redistribution, …  Elapsed modelled time is the sum over phases of the
    slowest rank in that phase, which is how a bulk-synchronous SPMD code
    actually behaves.

    All aggregations return the units of :class:`RankStats` (seconds,
    bytes, flops); ``is_conserved``/``assert_conserved`` check the
    per-phase byte balance every finished ledger is expected to satisfy.
    """

    nprocs: int
    #: phase name -> list of RankStats (index = rank)
    phases: Dict[str, List[RankStats]] = field(default_factory=dict)
    #: insertion order of phases
    phase_order: List[str] = field(default_factory=list)

    def phase(self, name: str) -> List[RankStats]:
        """Return (creating if needed) the per-rank stats of phase ``name``."""
        if name not in self.phases:
            fresh = RankStats.fresh
            self.phases[name] = [fresh(r) for r in range(self.nprocs)]
            self.phase_order.append(name)
        return self.phases[name]

    def rank(self, phase: str, rank: int) -> RankStats:
        return self.phase(phase)[rank]

    def charge_bulk(
        self,
        phase: str,
        ranks,
        *,
        messages=None,
        rdma_gets=None,
        bytes_sent=None,
        bytes_received=None,
        comm_seconds=None,
        other_seconds=None,
    ) -> None:
        """Scatter per-event charges onto the ranks of ``phase`` in O(ranks).

        ``ranks`` is an integer array with one entry per event (repeats
        allowed); each keyword is either ``None``, a scalar applied to every
        event, or an array aligned with ``ranks``.  Aggregation happens with
        ``np.add.at`` so a phase with millions of messages costs a handful of
        numpy calls plus one Python loop over the *distinct* ranks touched,
        which adds each field directly (a ``None`` field adds zero).
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return
        if ranks.min() < 0 or ranks.max() >= self.nprocs:
            raise IndexError("rank id outside 0..nprocs-1 in charge_bulk")
        stats_list = self.phase(phase)
        touched = np.unique(ranks)

        def _totals(values, dtype):
            """Per-rank totals of one field at the touched ranks (0 if ``None``)."""
            acc = np.zeros(self.nprocs, dtype=dtype)
            if values is not None:
                values = np.asarray(values)
                if values.ndim == 0:
                    values = np.broadcast_to(values, ranks.shape)
                elif values.shape != ranks.shape:
                    raise ValueError("charge_bulk array not aligned with ranks")
                np.add.at(acc, ranks, values)
            return acc[touched]

        counts = np.stack(
            [_totals(v, np.int64) for v in (messages, rdma_gets, bytes_sent, bytes_received)],
            axis=1,
        ).tolist()
        seconds = np.stack(
            [_totals(v, np.float64) for v in (comm_seconds, other_seconds)], axis=1
        ).tolist()
        for r, (msgs, gets, sent, received), (comm, other) in zip(
            touched.tolist(), counts, seconds
        ):
            st = stats_list[r]
            st.messages_sent += msgs
            st.rdma_gets += gets
            st.bytes_sent += sent
            st.bytes_received += received
            st.time["comm"] += comm
            st.time["other"] += other

    # ------------------------------------------------------------------
    # Conservation invariant
    # ------------------------------------------------------------------
    def conservation_report(self) -> Dict[str, Dict[str, int]]:
        """Per-phase byte balance: total sent, total received, and the gap.

        Every primitive of the simulated runtime moves bytes between two
        ledger entries of the same phase (sender/origin and receiver/target),
        so a non-zero ``imbalance`` in any phase means a bookkeeping bug.
        """
        report: Dict[str, Dict[str, int]] = {}
        for name in self.phase_order:
            stats_list = self.phases[name]
            sent = sum(st.bytes_sent for st in stats_list)
            received = sum(st.bytes_received for st in stats_list)
            report[name] = {
                "bytes_sent": sent,
                "bytes_received": received,
                "imbalance": sent - received,
            }
        return report

    def is_conserved(self) -> bool:
        """True iff every phase's total bytes sent equals total bytes received."""
        return all(row["imbalance"] == 0 for row in self.conservation_report().values())

    def assert_conserved(self) -> None:
        """Raise ``AssertionError`` naming the offending phases if unbalanced."""
        bad = {
            name: row
            for name, row in self.conservation_report().items()
            if row["imbalance"] != 0
        }
        if bad:
            detail = ", ".join(
                f"{name}: sent={row['bytes_sent']} received={row['bytes_received']}"
                for name, row in bad.items()
            )
            raise AssertionError(f"ledger conservation violated in phases {{{detail}}}")

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def per_rank_totals(self) -> List[RankStats]:
        """Sum every phase into one RankStats per rank (for breakdown plots)."""
        totals = [RankStats(rank=r) for r in range(self.nprocs)]
        for stats_list in self.phases.values():
            for r, st in enumerate(stats_list):
                for cat in CATEGORIES:
                    totals[r].time[cat] += st.time[cat]
                    totals[r].measured[cat] += st.measured[cat]
                totals[r].messages_sent += st.messages_sent
                totals[r].rdma_gets += st.rdma_gets
                totals[r].bytes_sent += st.bytes_sent
                totals[r].bytes_received += st.bytes_received
                totals[r].flops += st.flops
                totals[r].peak_memory_bytes = max(
                    totals[r].peak_memory_bytes, st.peak_memory_bytes
                )
        return totals

    def per_rank_time_arrays(self) -> Dict[str, np.ndarray]:
        """Per-rank modelled seconds by category, summed across phases.

        The record-extraction fast path: same values as reading ``time`` off
        :meth:`per_rank_totals` without materialising RankStats objects.
        Each rank's float accumulation happens in phase-insertion order, one
        addition per phase — exactly the order the RankStats loop applies —
        so every entry is bit-identical.
        """
        acc = {c: np.zeros(self.nprocs, dtype=np.float64) for c in CATEGORIES}
        for stats_list in self.phases.values():
            for c in CATEGORIES:
                acc[c] += np.fromiter(
                    (st.time[c] for st in stats_list),
                    dtype=np.float64,
                    count=len(stats_list),
                )
        return acc

    def elapsed_time(self) -> float:
        """Modelled elapsed time: Σ over phases of the slowest rank in that phase."""
        total = 0.0
        for name in self.phase_order:
            stats_list = self.phases[name]
            total += max((st.total_time for st in stats_list), default=0.0)
        return total

    def elapsed_time_by_category(self) -> Dict[str, float]:
        """Per-category elapsed time using the same Σ-max convention.

        The per-category maxima are taken on the same critical rank that
        maximises the phase total, so the categories sum to
        :meth:`elapsed_time` exactly.
        """
        out = {c: 0.0 for c in CATEGORIES}
        for name in self.phase_order:
            stats_list = self.phases[name]
            if not stats_list:
                continue
            critical = max(stats_list, key=lambda st: st.total_time)
            for c in CATEGORIES:
                out[c] += critical.time[c]
        return out

    def total_bytes(self) -> int:
        """Total communication volume (bytes received across all ranks/phases)."""
        return sum(
            st.bytes_received for stats_list in self.phases.values() for st in stats_list
        )

    def total_messages(self) -> int:
        """Total message count (sends + Gets) across all ranks/phases."""
        return sum(
            st.messages_sent + st.rdma_gets
            for stats_list in self.phases.values()
            for st in stats_list
        )

    def total_rdma_gets(self) -> int:
        return sum(
            st.rdma_gets for stats_list in self.phases.values() for st in stats_list
        )

    def total_flops(self) -> int:
        return sum(st.flops for stats_list in self.phases.values() for st in stats_list)

    def max_peak_memory(self) -> int:
        return max(
            (st.peak_memory_bytes for stats_list in self.phases.values() for st in stats_list),
            default=0,
        )

    def scalar_summary(self) -> Dict[str, object]:
        """Every scalar aggregate of the record schema in one ledger sweep.

        Computes exactly what :meth:`elapsed_time`,
        :meth:`elapsed_time_by_category`, :meth:`total_bytes`,
        :meth:`total_messages` and :meth:`total_rdma_gets` return — same
        iteration order, same accumulation order, so every value is
        bit-identical to the individual methods — but visits each
        ``RankStats`` once instead of once per aggregate.
        """
        elapsed = 0.0
        by_category = {c: 0.0 for c in CATEGORIES}
        total_bytes = 0
        total_messages = 0
        total_gets = 0
        for name in self.phase_order:
            critical = None
            critical_total = 0.0
            for st in self.phases[name]:
                t = st.total_time
                # Strict > keeps the first maximal rank, matching max().
                if critical is None or t > critical_total:
                    critical, critical_total = st, t
                total_bytes += st.bytes_received
                total_messages += st.messages_sent + st.rdma_gets
                total_gets += st.rdma_gets
            if critical is not None:
                elapsed += critical_total
                for c in CATEGORIES:
                    by_category[c] += critical.time[c]
        return {
            "elapsed_time": elapsed,
            "elapsed_time_by_category": by_category,
            "total_bytes": total_bytes,
            "total_messages": total_messages,
            "total_rdma_gets": total_gets,
        }

    def load_imbalance(self) -> float:
        """max/mean ratio of per-rank total modelled time (1.0 = perfectly balanced)."""
        totals = [st.total_time for st in self.per_rank_totals()]
        mean = float(np.mean(totals)) if totals else 0.0
        if mean == 0.0:
            return 1.0
        return float(np.max(totals)) / mean

    def merge(self, other: "PhaseLedger", *, prefix: str = "") -> None:
        """Append another ledger's phases to this one (phase names optionally prefixed)."""
        if other.nprocs != self.nprocs:
            raise ValueError("cannot merge ledgers with different process counts")
        for name in other.phase_order:
            target = self.phase(prefix + name)
            for r, st in enumerate(other.phases[name]):
                _accumulate_rank_stats(target[r], st)

    def subset(self, prefix: str, *, strip: bool = True) -> "PhaseLedger":
        """A new ledger holding copies of the phases whose names start with ``prefix``.

        Used by the resident prepare/execute pipeline to slice one run-wide
        ledger into per-multiply ledgers: each ``execute`` runs under a unique
        phase prefix (see :meth:`SimulatedCluster.phase_scope`) and its result
        carries ``ledger.subset(prefix)``.  With ``strip`` (the default) the
        prefix is removed from the copied phase names, so a sliced ledger is
        phase-for-phase comparable to one produced by a standalone run.
        """
        out = PhaseLedger(nprocs=self.nprocs)
        for name in self.phase_order:
            if not name.startswith(prefix):
                continue
            target = out.phase(name[len(prefix):] if strip else name)
            for r, st in enumerate(self.phases[name]):
                _accumulate_rank_stats(target[r], st)
        return out


def _accumulate_rank_stats(tgt: RankStats, st: RankStats) -> None:
    """Fold ``st``'s counters into ``tgt`` (shared by merge/subset)."""
    for cat in CATEGORIES:
        tgt.time[cat] += st.time[cat]
        tgt.measured[cat] += st.measured[cat]
    tgt.messages_sent += st.messages_sent
    tgt.rdma_gets += st.rdma_gets
    tgt.bytes_sent += st.bytes_sent
    tgt.bytes_received += st.bytes_received
    tgt.flops += st.flops
    tgt.peak_memory_bytes = max(tgt.peak_memory_bytes, st.peak_memory_bytes)

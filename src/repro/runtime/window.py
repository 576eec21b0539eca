"""Passive-target one-sided windows (the simulated ``MPI_Win`` / ``MPI_Get``).

Algorithm 1 exposes, on every process, two MPI windows: one over the row-id
array and one over the numeric-value array of the local ``A_i`` (stored
column-compressed).  Remote processes then issue passive-target ``MPI_Get``
calls for contiguous column ranges — no matching receive, no packing by the
target.

:class:`RdmaWindow` reproduces that interface on the simulated runtime:

* every rank *exposes* one or more named numpy arrays;
* any rank may :meth:`~RdmaWindow.get` a contiguous slice of another rank's
  exposed array;
* each ``get`` charges the origin rank one RDMA message (``α_rdma + β·bytes``)
  in the current phase, counts the transferred bytes on both sides, and
  charges the origin the unpack cost of landing the data.

A :class:`WindowEpoch` context manager mirrors ``MPI_Win_lock_all`` /
``MPI_Win_unlock_all`` semantics: gets are only legal inside an epoch, which
keeps algorithm code honest about where synchronisation happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = ["RdmaWindow", "WindowEpoch", "WindowError"]


class WindowError(RuntimeError):
    """Raised on illegal window usage (get outside an epoch, bad rank, bad key)."""


@dataclass
class RdmaWindow:
    """A set of per-rank exposed arrays reachable with one-sided ``get``.

    Parameters
    ----------
    cluster:
        The owning :class:`~repro.runtime.simulator.SimulatedCluster`; used to
        reach the cost model and the per-rank stats of the current phase.
    exposed:
        Mapping ``rank -> {name -> numpy array}`` of the arrays each rank
        exposes.  Arrays are *not* copied: like a real MPI window the memory
        stays owned by the target rank.
    """

    cluster: "object"
    exposed: Dict[int, Dict[str, np.ndarray]]
    _epoch_open: bool = field(default=False, init=False)
    _gets_issued: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        nprocs = self.cluster.nprocs
        for rank in self.exposed:
            if not 0 <= rank < nprocs:
                raise WindowError(f"exposed rank {rank} outside 0..{nprocs - 1}")
        # Exposing a window costs a collective "window creation" — charge a
        # latency per rank in the current phase under "other".
        for rank in range(nprocs):
            stats = self.cluster.stats(rank)
            stats.charge_time("other", self.cluster.cost_model.alpha)

    # ------------------------------------------------------------------
    # Epoch management (lock_all / unlock_all)
    # ------------------------------------------------------------------
    def epoch(self) -> "WindowEpoch":
        """Open a passive-target access epoch (``MPI_Win_lock_all`` analogue)."""
        return WindowEpoch(self)

    @property
    def gets_issued(self) -> int:
        """Total number of ``get`` operations issued through this window."""
        return self._gets_issued

    # ------------------------------------------------------------------
    # One-sided access
    # ------------------------------------------------------------------
    def get(
        self,
        origin: int,
        target: int,
        key: str,
        start: int,
        stop: int,
    ) -> np.ndarray:
        """Fetch ``exposed[target][key][start:stop]`` into ``origin``.

        Returns a copy (the data has "arrived" at the origin).  Charges the
        origin rank one RDMA message plus the per-byte transfer and unpack
        costs; the target is charged nothing (passive target), only its
        byte counter moves so volume accounting stays symmetric.
        """
        if not self._epoch_open:
            raise WindowError("RDMA get outside of an access epoch")
        if origin == target:
            # Local access: no message, no transfer cost, just a view copy.
            arr = self._lookup(target, key)
            return arr[start:stop].copy()
        arr = self._lookup(target, key)
        if not (0 <= start <= stop <= arr.shape[0]):
            raise WindowError(
                f"get range [{start}, {stop}) outside exposed array of length {arr.shape[0]}"
            )
        data = arr[start:stop].copy()
        nbytes = int(data.nbytes)
        model = self.cluster.cost_model
        origin_stats = self.cluster.stats(origin)
        target_stats = self.cluster.stats(target)
        origin_stats.rdma_gets += 1
        origin_stats.bytes_received += nbytes
        target_stats.bytes_sent += nbytes
        origin_stats.charge_time("comm", model.message_cost(nbytes, rdma=True))
        # Only the origin pays to land/unpack the data — the point of RDMA.
        origin_stats.charge_time("other", model.pack_cost(nbytes))
        self._gets_issued += 1
        return data

    def get_concat(
        self,
        origin: int,
        target: int,
        key: str,
        ranges,
    ) -> np.ndarray:
        """Issue one ``get`` per ``(start, stop)`` range and concatenate the results.

        ``ranges`` is a sequence of ``(start, stop)`` pairs — a list of tuples
        or an ``(M, 2)`` integer array.  Used by the block-fetch strategy,
        which issues at most ``K`` gets per remote process.  The accounting is
        batched: the ``M`` gets are charged in one bulk update
        (``M·α_rdma + β·total_bytes`` of modelled time, ``M`` RDMA messages,
        the summed byte counters on both sides) instead of ``M`` separate
        Python-level stat updates — byte-for-byte identical to looping
        :meth:`get`.
        """
        return self.get_concat_many(origin, target, (key,), ranges)[0]

    def get_concat_many(
        self,
        origin: int,
        target: int,
        keys,
        ranges,
    ) -> list[np.ndarray]:
        """Fetch the same ranges from several exposed arrays of one target.

        Returns one concatenated array per key, in order.  The accounting is
        byte-for-byte identical to calling :meth:`get_concat` once per key
        (each key charges its own ``M`` gets and byte totals); batching the
        keys only saves the host-side range translation and bounds checks.
        """
        arrs = [self._lookup(target, key) for key in keys]
        m = len(ranges)
        if m == 0:
            return [np.zeros(0, dtype=arr.dtype) for arr in arrs]
        if not self._epoch_open:
            raise WindowError("RDMA get outside of an access epoch")
        if isinstance(ranges, np.ndarray):
            pairs = ranges.tolist()
        else:
            pairs = [(int(s), int(e)) for s, e in ranges]
        if origin == target:
            # Local access: no messages, just view copies (matches `get`).
            return [
                np.concatenate([arr[start:stop] for start, stop in pairs])
                for arr in arrs
            ]
        # M is small (at most K per fetch), so a Python sweep beats three
        # numpy reductions over a tiny array.
        min_start = min(s for s, _ in pairs)
        max_stop = max(e for _, e in pairs)
        ordered = all(s <= e for s, e in pairs)
        model = self.cluster.cost_model
        origin_stats = self.cluster.stats(origin)
        target_stats = self.cluster.stats(target)
        out: list[np.ndarray] = []
        for arr in arrs:
            if not (ordered and 0 <= min_start and max_stop <= arr.shape[0]):
                raise WindowError("get range outside exposed array")
            data = np.concatenate([arr[start:stop] for start, stop in pairs])
            nbytes = int(data.nbytes)
            origin_stats.charge_bulk(
                rdma_gets=m,
                bytes_received=nbytes,
                comm_seconds=m * model.alpha_rdma + model.beta * nbytes,
                # Only the origin pays to land/unpack — the point of RDMA.
                other_seconds=model.pack_cost(nbytes),
            )
            target_stats.charge_bulk(bytes_sent=nbytes)
            self._gets_issued += m
            out.append(data)
        return out

    # ------------------------------------------------------------------
    def _lookup(self, rank: int, key: str) -> np.ndarray:
        try:
            per_rank = self.exposed[rank]
        except KeyError as exc:
            raise WindowError(f"rank {rank} exposes no window data") from exc
        try:
            return per_rank[key]
        except KeyError as exc:
            raise WindowError(
                f"rank {rank} exposes keys {sorted(per_rank)}, not {key!r}"
            ) from exc


class WindowEpoch:
    """Context manager marking a passive-target access epoch on a window."""

    def __init__(self, window: RdmaWindow) -> None:
        self._window = window

    def __enter__(self) -> RdmaWindow:
        if self._window._epoch_open:
            raise WindowError("nested window epochs are not supported")
        self._window._epoch_open = True
        return self._window

    def __exit__(self, exc_type, exc, tb) -> None:
        self._window._epoch_open = False
        # Closing the epoch implies a flush/fence; charge one latency per rank.
        for rank in range(self._window.cluster.nprocs):
            self._window.cluster.stats(rank).charge_time(
                "comm", self._window.cluster.cost_model.alpha_rdma
            )

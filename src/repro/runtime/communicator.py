"""Two-sided and collective communication on the simulated runtime.

The baselines the paper compares against (2D sparse SUMMA, 3D split SpGEMM,
block-row 1D) are built on broadcasts, point-to-point sends and
all-to-all exchanges rather than one-sided Gets.  This module provides those
primitives with the same accounting discipline as :mod:`repro.runtime.window`:
data is handed over as numpy arrays (or small picklable metadata), and every
operation charges modelled time to the participating ranks in the current
phase of the owning cluster.

Collective cost conventions (standard implementations):

* ``bcast`` of ``b`` bytes to ``g`` ranks — binomial tree: exactly ``g − 1``
  messages of ``b`` bytes move in ``ceil(log2 g)`` rounds.  Rank at tree
  position ``j`` (relative to the root) receives once and forwards to
  ``j + 2^k`` for every round ``k`` with ``2^k > j`` and ``j + 2^k < g``;
  summed over the group, sent bytes equal received bytes.
* ``allgather`` of per-rank ``b_i`` bytes over ``g`` ranks — ring/bruck:
  each rank receives ``Σ b_i − b_own`` bytes in ``g − 1`` messages.
* ``gather`` — binomial tree towards the root: each non-root sends exactly
  one message carrying its whole accumulated subtree.
* ``alltoallv`` — pairwise exchange: each rank sends its per-destination
  buffers directly, paying one message per non-empty destination.
* ``reduce``/``allreduce`` — binomial tree reduce (one up-message per
  non-root) followed by a binomial-tree broadcast.

Every collective conserves bytes by construction — the total charged as sent
across the group equals the total charged as received — and when
``check_conservation`` is enabled (the default; disable with the environment
variable ``REPRO_CHECK_CONSERVATION=0``) each call also asserts that balance,
so bookkeeping regressions fail loudly at the call site.

All collectives also charge the two-sided pack cost on both sides, which is
exactly the overhead the paper's RDMA design avoids.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Communicator", "binomial_send_counts"]

_INDEX_DTYPE = np.int64


def _nbytes(obj) -> int:
    """Approximate wire size of a payload (numpy array, bytes, or sequence of them)."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(k) + _nbytes(v) for k, v in obj.items())
    if hasattr(obj, "memory_bytes"):
        return int(obj.memory_bytes())
    # Fallback: a conservative flat size for small metadata objects.
    return 64


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


#: cache of per-group-size binomial tree shapes (send counts per tree position)
_BINOMIAL_CACHE: Dict[int, np.ndarray] = {}


def binomial_send_counts(g: int) -> np.ndarray:
    """Messages sent by each *tree position* of a ``g``-rank binomial broadcast.

    Position 0 is the root.  Position ``j`` forwards to ``j + 2^k`` for every
    round ``k`` with ``2^k > j`` and ``j + 2^k < g``; the returned counts
    therefore sum to exactly ``g − 1`` (each non-root position receives the
    payload once, from ``j − 2^floor(log2 j)``).
    """
    if g <= 0:
        raise ValueError("group size must be positive")
    cached = _BINOMIAL_CACHE.get(g)
    if cached is not None:
        return cached
    if g == 1:
        counts = np.zeros(1, dtype=_INDEX_DTYPE)
    else:
        rounds = int(math.ceil(math.log2(g)))
        ks = (2 ** np.arange(rounds, dtype=_INDEX_DTYPE))[None, :]
        js = np.arange(g, dtype=_INDEX_DTYPE)[:, None]
        counts = np.sum((ks > js) & (js + ks < g), axis=1).astype(_INDEX_DTYPE)
    counts.setflags(write=False)
    _BINOMIAL_CACHE[g] = counts
    return counts


class Communicator:
    """Two-sided/collective operations over all ranks of a simulated cluster.

    The data itself is exchanged by reference inside one Python process —
    what matters for the reproduction is the *accounting*: who is charged how
    many messages, bytes, and seconds.  Charges land on the cluster's
    *current phase* in the units of :class:`~repro.runtime.stats.RankStats`
    (modelled seconds, payload bytes, message counts), and every primitive
    conserves bytes by construction: the group's total ``bytes_sent``
    equals its total ``bytes_received`` for each call, asserted inline
    when ``check_conservation`` is enabled (the default).
    """

    def __init__(self, cluster, check_conservation: Optional[bool] = None) -> None:
        self.cluster = cluster
        if check_conservation is None:
            check_conservation = _env_flag("REPRO_CHECK_CONSERVATION", True)
        #: assert per-call group conservation (bytes sent == bytes received)
        self.check_conservation = bool(check_conservation)

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.cluster.nprocs

    def _model(self):
        return self.cluster.cost_model

    def _stats(self, rank: int):
        return self.cluster.stats(rank)

    def _charge_group(
        self,
        ranks: np.ndarray,
        *,
        messages: np.ndarray,
        bytes_sent: np.ndarray,
        bytes_received: np.ndarray,
        comm_seconds: np.ndarray,
        other_seconds: Optional[np.ndarray] = None,
        collective: str = "collective",
    ) -> None:
        """Apply per-rank charge arrays for one collective, checking conservation.

        The arrays are aligned with ``ranks``; the conservation invariant is
        checked on the arrays *before* they touch the ledger, so a violation
        points at the exact collective call that produced it.
        """
        if self.check_conservation:
            sent = int(np.sum(bytes_sent))
            received = int(np.sum(bytes_received))
            if sent != received:
                raise AssertionError(
                    f"{collective} violates conservation: group sent {sent} bytes "
                    f"but received {received} bytes"
                )
        for idx, rank in enumerate(ranks):
            self._stats(int(rank)).charge_bulk(
                messages=int(messages[idx]),
                bytes_sent=int(bytes_sent[idx]),
                bytes_received=int(bytes_received[idx]),
                comm_seconds=float(comm_seconds[idx]),
                other_seconds=0.0 if other_seconds is None else float(other_seconds[idx]),
            )

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload, src: int, dst: int):
        """Model a two-sided send/recv pair and return the payload (for the receiver)."""
        if src == dst:
            return payload
        nbytes = _nbytes(payload)
        model = self._model()
        s = self._stats(src)
        d = self._stats(dst)
        cost = model.message_cost(nbytes)
        pack = model.pack_cost(nbytes)
        # Two-sided transfers pack on the sender and unpack on the receiver.
        s.charge_bulk(
            messages=1, bytes_sent=nbytes, comm_seconds=cost, other_seconds=pack
        )
        d.charge_bulk(bytes_received=nbytes, comm_seconds=cost, other_seconds=pack)
        return payload

    def send_many(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        sizes: Sequence[int],
    ) -> None:
        """Charge a whole batch of point-to-point sends in O(P) numpy work.

        ``srcs``/``dsts``/``sizes`` are aligned arrays, one entry per message;
        self-sends (``src == dst``) cost nothing, matching :meth:`send`.  The
        caller keeps moving the payloads by reference — this is the accounting
        path the naive block-row ring exchange uses so its P·(P−1) messages
        cost a handful of numpy calls instead of a Python loop pair.
        """
        srcs = np.asarray(srcs, dtype=_INDEX_DTYPE)
        dsts = np.asarray(dsts, dtype=_INDEX_DTYPE)
        sizes = np.asarray(sizes, dtype=_INDEX_DTYPE)
        if not (srcs.shape == dsts.shape == sizes.shape):
            raise ValueError("send_many arrays must be aligned")
        remote = srcs != dsts
        if not np.any(remote):
            return
        srcs, dsts, sizes = srcs[remote], dsts[remote], sizes[remote]
        model = self._model()
        costs = model.alpha + model.beta * sizes
        packs = model.pack_per_byte * sizes.astype(np.float64)
        ledger = self.cluster.ledger
        phase = self.cluster.current_phase
        ledger.charge_bulk(
            phase,
            srcs,
            messages=1,
            bytes_sent=sizes,
            comm_seconds=costs,
            other_seconds=packs,
        )
        ledger.charge_bulk(
            phase,
            dsts,
            bytes_received=sizes,
            comm_seconds=costs,
            other_seconds=packs,
        )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _bcast_charges(
        self, nbytes: np.ndarray, root_pos: np.ndarray, g: int
    ) -> Tuple[np.ndarray, ...]:
        """Per-member (messages, sent, received, comm, other) of ``g``-rank broadcasts.

        Row ``k`` of each ``len(nbytes) × g`` table is a broadcast of
        ``nbytes[k]`` bytes rooted at group position ``root_pos[k]``.  Tree
        positions are relative to the root (the standard relative-rank
        rotation), and every element gets the scalar cost model's arithmetic.
        """
        model = self._model()
        pos = (np.arange(g, dtype=_INDEX_DTYPE)[None, :] - root_pos[:, None]) % g
        messages = binomial_send_counts(g)[pos]
        sent = messages * nbytes[:, None]
        received = (pos != 0) * nbytes[:, None]
        if g == 1:
            zeros = np.zeros(pos.shape, dtype=np.float64)
            return messages, sent, received, zeros, zeros
        # Every participant is on the critical path of the full tree depth.
        rounds = math.ceil(math.log2(g))
        sizes = nbytes.astype(np.float64)
        comm = rounds * (model.alpha + model.beta * sizes)
        other = model.pack_cost_bulk(nbytes)
        return (
            messages,
            sent,
            received,
            np.broadcast_to(comm[:, None], pos.shape),
            np.broadcast_to(other[:, None], pos.shape),
        )

    def bcast(self, payload, root: int, ranks: Optional[Sequence[int]] = None):
        """Broadcast ``payload`` from ``root`` to ``ranks`` (default: everyone).

        Binomial-tree accounting: exactly ``g − 1`` messages of ``b`` bytes in
        total, so group bytes sent equal group bytes received.  Returns a dict
        ``rank -> payload`` so SPMD-style loops can index it.
        """
        ranks = list(range(self.nprocs)) if ranks is None else list(ranks)
        if root not in ranks:
            raise ValueError("broadcast root must be a member of the rank group")
        messages, sent, received, comm, other = self._bcast_charges(
            np.array([_nbytes(payload)], dtype=_INDEX_DTYPE),
            np.array([ranks.index(root)], dtype=_INDEX_DTYPE),
            len(ranks),
        )
        self._charge_group(
            np.asarray(ranks, dtype=_INDEX_DTYPE),
            messages=messages[0],
            bytes_sent=sent[0],
            bytes_received=received[0],
            comm_seconds=comm[0],
            other_seconds=other[0],
            collective="bcast",
        )
        return {rank: payload for rank in ranks}

    def bcast_many(
        self,
        items: Sequence[Tuple[object, int, Sequence[int]]],
    ) -> List[Dict[int, object]]:
        """Charge a batch of broadcasts — ``(payload, root, ranks)`` triples — at once.

        Produces byte-for-byte the same ledger as looping :meth:`bcast`, but
        lands all per-rank deltas with one
        :meth:`~repro.runtime.stats.PhaseLedger.charge_bulk` call.  A batch
        whose groups all have one size (every SUMMA stage) computes its
        charges in one pass over an items × g table; a mixed batch computes
        them item by item, in the same event order.
        """
        groups = [list(ranks) for _, _, ranks in items]
        root_pos = []
        for (_, root, _), group in zip(items, groups):
            if root not in group:
                raise ValueError("broadcast root must be a member of the rank group")
            root_pos.append(group.index(root))
        results = [
            {rank: payload for rank in group}
            for (payload, _, _), group in zip(items, groups)
        ]
        if not items:
            return results
        nbytes = np.array([_nbytes(p) for p, _, _ in items], dtype=_INDEX_DTYPE)
        root_pos = np.array(root_pos, dtype=_INDEX_DTYPE)
        sizes = [len(group) for group in groups]
        if len(set(sizes)) == 1:
            tables = self._bcast_charges(nbytes, root_pos, sizes[0])
        else:
            per_item = [
                self._bcast_charges(nbytes[k : k + 1], root_pos[k : k + 1], g)
                for k, g in enumerate(sizes)
            ]
            tables = [np.concatenate([c[f].ravel() for c in per_item]) for f in range(5)]
        messages, sent, received, comm, other = (t.ravel() for t in tables)
        if self.check_conservation:
            starts = np.cumsum([0] + sizes[:-1])
            item_sent = np.add.reduceat(sent, starts)
            item_received = np.add.reduceat(received, starts)
            bad = np.flatnonzero(item_sent != item_received)
            if bad.size:
                raise AssertionError(
                    "bcast_many violates conservation: group sent "
                    f"{int(item_sent[bad[0]])} bytes but received "
                    f"{int(item_received[bad[0]])}"
                )
        self.cluster.ledger.charge_bulk(
            self.cluster.current_phase,
            np.array([r for group in groups for r in group], dtype=_INDEX_DTYPE),
            messages=messages,
            bytes_sent=sent,
            bytes_received=received,
            comm_seconds=comm,
            other_seconds=other,
        )
        return results

    def allgather(self, per_rank_payloads: Dict[int, object],
                  ranks: Optional[Sequence[int]] = None) -> Dict[int, List[object]]:
        """Allgather: every rank contributes one payload, every rank gets all of them."""
        ranks = sorted(per_rank_payloads) if ranks is None else list(ranks)
        g = len(ranks)
        model = self._model()
        sizes = np.array([_nbytes(per_rank_payloads[r]) for r in ranks], dtype=_INDEX_DTYPE)
        total = int(sizes.sum())
        gathered = [per_rank_payloads[r] for r in ranks]
        if g > 1:
            recv = total - sizes
            sent = sizes * (g - 1)
            messages = np.full(g, g - 1, dtype=_INDEX_DTYPE)
            comm = (g - 1) * model.alpha + model.beta * (sent + recv).astype(np.float64)
            other = model.pack_per_byte * (recv + sizes).astype(np.float64)
            self._charge_group(
                np.asarray(ranks, dtype=_INDEX_DTYPE),
                messages=messages,
                bytes_sent=sent,
                bytes_received=recv,
                comm_seconds=comm,
                other_seconds=other,
                collective="allgather",
            )
        return {rank: list(gathered) for rank in ranks}

    def gather(self, per_rank_payloads: Dict[int, object], root: int) -> List[object]:
        """Gather every rank's payload at ``root``; returns the ordered list at root.

        Binomial-tree accounting: each non-root tree position sends exactly one
        message carrying its accumulated subtree, so the group moves ``g − 1``
        messages and ``Σ_{j≠root} subtree_bytes(j)`` bytes, sent == received.
        """
        ranks = sorted(per_rank_payloads)
        g = len(ranks)
        model = self._model()
        result = [per_rank_payloads[r] for r in ranks]
        if g <= 1:
            return result
        root_pos = ranks.index(root)
        sizes = np.array([_nbytes(per_rank_payloads[r]) for r in ranks], dtype=_INDEX_DTYPE)
        # Accumulate subtree sizes up the binomial tree, round by round; the
        # position arrays are relative to the root (position 0 = root).
        rel_sizes = np.roll(sizes, -root_pos)
        acc = rel_sizes.astype(_INDEX_DTYPE).copy()
        rounds = int(math.ceil(math.log2(g)))
        rel_sent = np.zeros(g, dtype=_INDEX_DTYPE)
        rel_recv = np.zeros(g, dtype=_INDEX_DTYPE)
        rel_msgs = np.zeros(g, dtype=_INDEX_DTYPE)
        for k in range(rounds):
            step = 1 << k
            senders = np.arange(g, dtype=_INDEX_DTYPE)
            mask = (senders & ((step << 1) - 1)) == step
            senders = senders[mask]
            if senders.size == 0:
                continue
            parents = senders - step
            moved = acc[senders]
            rel_sent[senders] += moved
            rel_msgs[senders] += 1
            rel_recv[parents] += moved
            np.add.at(acc, parents, moved)
            acc[senders] = 0
        # Rotate back to absolute group positions.
        positions = (np.arange(g) - root_pos) % g
        sent = rel_sent[positions]
        received = rel_recv[positions]
        messages = rel_msgs[positions]
        comm = model.alpha * (messages + (received > 0)) + model.beta * (
            sent + received
        ).astype(np.float64)
        other = model.pack_per_byte * (sent + received).astype(np.float64)
        self._charge_group(
            np.asarray(ranks, dtype=_INDEX_DTYPE),
            messages=messages,
            bytes_sent=sent,
            bytes_received=received,
            comm_seconds=comm,
            other_seconds=other,
            collective="gather",
        )
        return result

    def alltoallv(
        self, buffers: Dict[int, Dict[int, object]]
    ) -> Dict[int, Dict[int, object]]:
        """Personalised all-to-all.

        ``buffers[src][dst]`` is the payload ``src`` sends to ``dst``; the
        return value is ``received[dst][src]``.  Empty/None payloads cost
        nothing (sparse all-to-all, as used by the 3D merge step).  The
        accounting for all pairs is aggregated into numpy arrays and charged
        in O(P), not O(P²).
        """
        received: Dict[int, Dict[int, object]] = {r: {} for r in range(self.nprocs)}
        srcs: List[int] = []
        dsts: List[int] = []
        sizes: List[int] = []
        for src, per_dst in buffers.items():
            for dst, payload in per_dst.items():
                if payload is None:
                    continue
                received[dst][src] = payload
                if src == dst:
                    continue
                srcs.append(src)
                dsts.append(dst)
                sizes.append(_nbytes(payload))
        self.alltoallv_sizes(srcs, dsts, sizes)
        return received

    def alltoallv_sizes(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        sizes: Sequence[int],
    ) -> None:
        """Pure-accounting personalised all-to-all over numpy size arrays.

        One entry per pairwise message; self-messages must already be
        filtered out by the caller (:meth:`alltoallv` does).  This is the
        vectorised path the algorithms use when the payload routing is handled
        separately from the cost accounting.
        """
        srcs = np.asarray(srcs, dtype=_INDEX_DTYPE)
        dsts = np.asarray(dsts, dtype=_INDEX_DTYPE)
        sizes = np.asarray(sizes, dtype=_INDEX_DTYPE)
        if not (srcs.shape == dsts.shape == sizes.shape):
            raise ValueError("alltoallv_sizes arrays must be aligned")
        if srcs.size == 0:
            return
        if self.check_conservation and np.any(srcs == dsts):
            raise AssertionError("alltoallv_sizes received a self-message")
        model = self._model()
        costs = model.alpha + model.beta * sizes
        packs = model.pack_per_byte * sizes.astype(np.float64)
        ledger = self.cluster.ledger
        phase = self.cluster.current_phase
        ledger.charge_bulk(
            phase,
            srcs,
            messages=1,
            bytes_sent=sizes,
            comm_seconds=costs,
            other_seconds=packs,
        )
        ledger.charge_bulk(
            phase,
            dsts,
            bytes_received=sizes,
            comm_seconds=costs,
            other_seconds=packs,
        )

    def allreduce_scalar(self, per_rank_values: Dict[int, float], op=sum) -> Dict[int, float]:
        """Allreduce of one scalar per rank (binomial reduce + binomial broadcast).

        The reduce phase moves ``g − 1`` eight-byte messages up the tree (one
        per non-root position); the broadcast phase moves ``g − 1`` back down,
        so the group's sent and received bytes balance exactly.
        """
        ranks = sorted(per_rank_values)
        g = len(ranks)
        model = self._model()
        value = op(per_rank_values[r] for r in ranks)
        if g <= 1:
            return {rank: value for rank in ranks}
        rounds = max(1, math.ceil(math.log2(g)))
        # Tree position == group position (root = ranks[0]).
        down_sends = binomial_send_counts(g)          # broadcast: sends per position
        up_sends = (np.arange(g) > 0).astype(_INDEX_DTYPE)  # reduce: one up-message
        up_recvs = down_sends                          # children count == bcast sends
        down_recvs = up_sends                          # every non-root receives once
        messages = up_sends + down_sends
        sent = 8 * messages
        received = 8 * (up_recvs + down_recvs)
        comm = np.full(g, 2 * rounds * model.message_cost(8), dtype=np.float64)
        self._charge_group(
            np.asarray(ranks, dtype=_INDEX_DTYPE),
            messages=messages,
            bytes_sent=sent,
            bytes_received=received,
            comm_seconds=comm,
            collective="allreduce_scalar",
        )
        return {rank: value for rank in ranks}

    def barrier(self, ranks: Optional[Sequence[int]] = None) -> None:
        """Synchronise; charges one log-tree latency round to every rank."""
        ranks = list(range(self.nprocs)) if ranks is None else list(ranks)
        g = len(ranks)
        if g <= 1:
            return
        rounds = max(1, math.ceil(math.log2(g)))
        model = self._model()
        for rank in ranks:
            self._stats(rank).charge_time("comm", rounds * model.alpha)

"""Conservation invariant and batched-accounting tests.

The simulated ledger *is* the experiment: the paper's headline claims are
communication-volume and message-count comparisons, so every byte charged as
sent must be charged as received by some other rank.  These tests pin that
invariant for every collective, for the batched primitives (which must be
byte-for-byte identical to their looped equivalents), and for all the
distributed algorithms end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    ImprovedBlockRow1D,
    NaiveBlockRow1D,
    OuterProduct1D,
    SparseSUMMA2D,
    SparsityAware1D,
    SplitSpGEMM3D,
    estimate_communication,
    plan_block_fetch,
    plan_block_fetch_all,
)
from repro.matrices.generators import banded, community_graph
from repro.runtime import (
    CATEGORIES,
    PERLMUTTER,
    MemoryLimitExceeded,
    PhaseLedger,
    SimulatedCluster,
    binomial_send_counts,
)


def _phase_balance(cluster, phase="default"):
    stats = cluster.ledger.phases.get(phase, [])
    sent = sum(st.bytes_sent for st in stats)
    received = sum(st.bytes_received for st in stats)
    messages = sum(st.messages_sent for st in stats)
    return sent, received, messages


PAYLOAD = np.arange(125, dtype=np.float64)  # 1000 bytes


def _do_send(cl):
    cl.comm.send(PAYLOAD, src=0, dst=cl.nprocs - 1)
    return 1 if cl.nprocs > 1 else 0


def _do_bcast(cl):
    cl.comm.bcast(PAYLOAD, root=1 if cl.nprocs > 1 else 0)
    return cl.nprocs - 1


def _do_allgather(cl):
    cl.comm.allgather({r: PAYLOAD for r in range(cl.nprocs)})
    return cl.nprocs * (cl.nprocs - 1)


def _do_gather(cl):
    cl.comm.gather({r: PAYLOAD for r in range(cl.nprocs)}, root=0)
    return cl.nprocs - 1


def _do_alltoallv(cl):
    buffers = {
        src: {dst: PAYLOAD for dst in range(cl.nprocs) if dst != src}
        for src in range(cl.nprocs)
    }
    cl.comm.alltoallv(buffers)
    return cl.nprocs * (cl.nprocs - 1)


def _do_allreduce(cl):
    cl.comm.allreduce_scalar({r: float(r) for r in range(cl.nprocs)})
    return 2 * (cl.nprocs - 1)


COLLECTIVES = {
    "send": _do_send,
    "bcast": _do_bcast,
    "allgather": _do_allgather,
    "gather": _do_gather,
    "alltoallv": _do_alltoallv,
    "allreduce_scalar": _do_allreduce,
}


class TestCollectiveConservation:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8, 16])
    def test_group_bytes_conserved_and_message_count_sane(self, name, nprocs):
        cl = SimulatedCluster(nprocs)
        expected_messages = COLLECTIVES[name](cl)
        sent, received, messages = _phase_balance(cl)
        assert sent == received, f"{name}: sent {sent} != received {received}"
        assert messages == expected_messages
        cl.ledger.assert_conserved()

    @pytest.mark.parametrize("g", [2, 3, 4, 7, 8, 16, 33])
    def test_bcast_moves_exactly_g_minus_1_payloads(self, g):
        """Regression: the root used to be charged ``rounds`` full payloads
        *and* every non-root another send, inflating the 2D/3D baselines."""
        cl = SimulatedCluster(g)
        cl.comm.bcast(PAYLOAD, root=0)
        sent, received, messages = _phase_balance(cl)
        assert sent == (g - 1) * PAYLOAD.nbytes
        assert received == (g - 1) * PAYLOAD.nbytes
        assert messages == g - 1

    def test_bcast_root_not_necessarily_first_in_group(self):
        cl = SimulatedCluster(8)
        ranks = [6, 2, 4, 7]
        cl.comm.bcast(PAYLOAD, root=4, ranks=ranks)
        sent, received, _ = _phase_balance(cl)
        assert sent == received == (len(ranks) - 1) * PAYLOAD.nbytes
        # The root receives nothing; every other member receives once.
        assert cl.stats(4).bytes_received == 0
        for r in (6, 2, 7):
            assert cl.stats(r).bytes_received == PAYLOAD.nbytes

    def test_binomial_send_counts_sum_to_g_minus_1(self):
        for g in (1, 2, 3, 5, 8, 13, 64, 100):
            counts = binomial_send_counts(g)
            assert int(counts.sum()) == g - 1
            rounds = math.ceil(math.log2(g)) if g > 1 else 0
            assert int(counts[0]) == rounds  # the root sends every round

    def test_gather_subtree_volume(self):
        """Binomial gather: each non-root sends its accumulated subtree once."""
        g = 8
        cl = SimulatedCluster(g)
        cl.comm.gather({r: PAYLOAD for r in range(g)}, root=0)
        sent, received, messages = _phase_balance(cl)
        assert messages == g - 1
        # For a power-of-two group with uniform sizes, the per-position
        # subtree sizes are 1,1,2,1,2,2... summing over the non-root
        # positions gives b · Σ depth-weighted subtree sizes == 12·b for g=8.
        assert sent == received == 12 * PAYLOAD.nbytes

    def test_conservation_check_rejects_cooked_books(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p", 0).bytes_sent += 100
        assert not ledger.is_conserved()
        with pytest.raises(AssertionError, match="conservation"):
            ledger.assert_conserved()
        ledger.rank("p", 1).bytes_received += 100
        ledger.assert_conserved()


def _ledger_rows(cluster):
    """Every counter of every rank, floats as ``float.hex``: equal rows mean
    byte-identical ledgers, one ulp apart means not equal."""
    return [
        (name, st.rank, *(float.hex(st.time[c]) for c in CATEGORIES),
         st.messages_sent, st.rdma_gets, st.bytes_sent, st.bytes_received,
         st.flops, st.peak_memory_bytes)
        for name in cluster.ledger.phase_order
        for st in cluster.ledger.phases[name]
    ]


def _reference_bcast(cluster, payload, root, ranks):
    """Charge one binomial broadcast from the scalar cost-model formulas."""
    model = cluster.cost_model
    g = len(ranks)
    nbytes = payload.nbytes
    counts = binomial_send_counts(g)
    rounds = math.ceil(math.log2(g)) if g > 1 else 0
    for k, rank in enumerate(ranks):
        st = cluster.stats(rank)
        pos = (k - ranks.index(root)) % g
        st.messages_sent += int(counts[pos])
        st.bytes_sent += int(counts[pos]) * nbytes
        st.bytes_received += nbytes if pos else 0
        if g > 1:
            st.time["comm"] += rounds * model.message_cost(nbytes)
            st.time["other"] += model.pack_cost(nbytes)


def _equal_size_batch(g, nprocs=64):
    """One broadcast rooted at every group position; sizes include 0 bytes."""
    group = [(7 * k + 3) % nprocs for k in range(g)]
    return [(np.zeros(k % 4 * 13), group[k], group) for k in range(g)]


BCAST_BATCHES = {
    "mixed-sizes": [
        (np.zeros(10), 0, [0, 1, 2, 3]),
        (np.zeros(77), 5, [4, 5, 6]),
        (np.zeros(3), 7, [7]),
    ],
    "mixed-overlapping": [
        (np.zeros(9), 9, [9, 2, 40, 17, 33]),
        (np.zeros(0), 2, [2, 9]),
        (np.zeros(5), 33, [33, 9, 2, 40, 17]),
    ],
    "g1-groups": [(np.zeros(k), k, [k]) for k in range(5)],
    **{f"equal-g{g}": _equal_size_batch(g) for g in (2, 3, 5, 32)},
}


class TestBatchedPrimitives:
    @pytest.mark.parametrize("batch", sorted(BCAST_BATCHES))
    def test_bcast_many_matches_looped_bcast(self, batch):
        items = BCAST_BATCHES[batch]
        reference = SimulatedCluster(64)
        looped = SimulatedCluster(64)
        for payload, root, ranks in items:
            _reference_bcast(reference, payload, root, ranks)
            looped.comm.bcast(payload, root=root, ranks=ranks)
        batched = SimulatedCluster(64)
        results = batched.comm.bcast_many(items)
        assert [set(r) for r in results] == [set(ranks) for _, _, ranks in items]
        assert _ledger_rows(batched) == _ledger_rows(looped) == _ledger_rows(reference)
        batched.ledger.assert_conserved()

    def test_bcast_many_rejects_root_outside_group(self):
        cl = SimulatedCluster(4)
        with pytest.raises(ValueError, match="root"):
            cl.comm.bcast_many([(np.zeros(2), 0, [0, 1]), (np.zeros(2), 3, [1, 2])])
        assert _ledger_rows(cl) == []

    def test_ledger_charge_bulk_matches_per_event_rank_charges(self):
        """Repeated ranks and ``None`` fields: the scatter adds each rank's
        events in order, exactly as one ``RankStats.charge_bulk`` per event."""
        ranks = [3, 1, 3, 0, 3, 1, 2]
        received = [10, 0, 7, 1, 5, 2, 9]
        comm = [0.1, 0.2, 0.3, 1e-17, 0.7, 1e-9, 3.0]
        bulk = PhaseLedger(nprocs=5)
        bulk.charge_bulk("p", ranks, messages=1, bytes_received=received,
                         comm_seconds=comm, other_seconds=None, rdma_gets=None)
        looped = PhaseLedger(nprocs=5)
        for rank, nbytes, seconds in zip(ranks, received, comm):
            looped.rank("p", rank).charge_bulk(
                messages=1, bytes_received=nbytes, comm_seconds=seconds
            )
        for a, b in zip(bulk.phase("p"), looped.phase("p")):
            assert float.hex(a.time["comm"]) == float.hex(b.time["comm"])
            assert a.time == b.time
            assert (a.messages_sent, a.rdma_gets, a.bytes_sent, a.bytes_received) == (
                b.messages_sent, b.rdma_gets, b.bytes_sent, b.bytes_received
            )
        assert bulk.rank("p", 4).messages_sent == 0

    def test_charge_compute_and_memory_bulk_matches_scalar_charges(self):
        """Same counters as ``charge_compute`` + ``charge_memory`` per entry,
        and the same rank named, with later entries uncharged, on overflow."""
        ranks, flops, nbytes = [0, 2, 3], [5, 0, 7_000_003], [100, 900, 50]
        capped = PERLMUTTER.with_memory_capacity(800)
        bulk = SimulatedCluster(4, cost_model=capped)
        looped = SimulatedCluster(4, cost_model=capped)
        with pytest.raises(MemoryLimitExceeded) as from_bulk:
            bulk.charge_compute_and_memory_bulk(ranks, flops, nbytes)
        with pytest.raises(MemoryLimitExceeded) as from_loop:
            for rank, fl, nb in zip(ranks, flops, nbytes):
                looped.charge_compute(rank, fl)
                looped.charge_memory(rank, nb)
        assert (from_bulk.value.rank, from_bulk.value.needed) == (2, 900)
        assert (from_loop.value.rank, from_loop.value.needed) == (2, 900)
        assert _ledger_rows(bulk) == _ledger_rows(looped)
        uncapped = SimulatedCluster(4)
        uncapped.charge_compute_and_memory_bulk(ranks, flops, nbytes)
        assert uncapped.stats(3).flops == 7_000_003
        assert uncapped.stats(3).peak_memory_bytes == 50

    def test_send_many_matches_looped_send(self):
        sends = [(0, 1, 64), (2, 3, 128), (3, 0, 8), (1, 1, 999)]  # incl. self-send
        looped = SimulatedCluster(4)
        for src, dst, size in sends:
            looped.comm.send(np.zeros(size // 8), src=src, dst=dst)
        batched = SimulatedCluster(4)
        batched.comm.send_many(
            [s for s, _, _ in sends],
            [d for _, d, _ in sends],
            [n for _, _, n in sends],
        )
        for r in range(4):
            a, b = looped.stats(r), batched.stats(r)
            assert a.bytes_sent == b.bytes_sent
            assert a.bytes_received == b.bytes_received
            assert a.messages_sent == b.messages_sent
            assert a.comm_time == pytest.approx(b.comm_time)

    def test_alltoallv_sizes_matches_alltoallv(self):
        buffers = {0: {1: np.zeros(8), 2: np.zeros(4)}, 1: {2: np.zeros(16)}, 2: {}}
        through_payloads = SimulatedCluster(3)
        through_payloads.comm.alltoallv(buffers)
        through_sizes = SimulatedCluster(3)
        through_sizes.comm.alltoallv_sizes([0, 0, 1], [1, 2, 2], [64, 32, 128])
        for r in range(3):
            a, b = through_payloads.stats(r), through_sizes.stats(r)
            assert a.bytes_sent == b.bytes_sent
            assert a.bytes_received == b.bytes_received
            assert a.messages_sent == b.messages_sent

    def test_alltoallv_sizes_rejects_self_messages(self):
        cl = SimulatedCluster(2)
        with pytest.raises(AssertionError):
            cl.comm.alltoallv_sizes([0], [0], [8])

    def test_ledger_charge_bulk_aggregates_repeated_ranks(self):
        ledger = PhaseLedger(nprocs=4)
        ledger.charge_bulk(
            "p",
            [1, 1, 3],
            messages=1,
            bytes_sent=[10, 20, 30],
            comm_seconds=[0.5, 0.25, 1.0],
        )
        assert ledger.rank("p", 1).bytes_sent == 30
        assert ledger.rank("p", 1).messages_sent == 2
        assert ledger.rank("p", 1).comm_time == pytest.approx(0.75)
        assert ledger.rank("p", 3).bytes_sent == 30
        assert ledger.rank("p", 0).bytes_sent == 0

    def test_ledger_charge_bulk_rejects_bad_rank(self):
        ledger = PhaseLedger(nprocs=2)
        with pytest.raises(IndexError):
            ledger.charge_bulk("p", [5], bytes_sent=[1])

    def test_plan_block_fetch_all_matches_per_target_planning(self):
        rng = np.random.default_rng(11)
        hit = rng.random(200) < 0.3
        targets = [
            np.sort(rng.choice(200, size=n, replace=False)).astype(np.int64)
            for n in (0, 7, 31, 64)
        ]
        plans = plan_block_fetch_all(targets, hit, K=5)
        assert plans[0] is None
        for cols, plan in zip(targets[1:], plans[1:]):
            ref = plan_block_fetch(cols, hit, K=5)
            assert plan.intervals == ref.intervals
            np.testing.assert_array_equal(plan.required_positions, ref.required_positions)
            np.testing.assert_array_equal(plan.covered_positions, ref.covered_positions)


ALGORITHMS = {
    "1d-sparsity-aware": lambda: SparsityAware1D(block_split=16),
    "2d-summa": SparseSUMMA2D,
    "3d-split": lambda: SplitSpGEMM3D(layers=4),
    "1d-naive-block-row": NaiveBlockRow1D,
    "1d-improved-block-row": ImprovedBlockRow1D,
    "1d-outer-product": OuterProduct1D,
}


class TestAlgorithmLedgerConservation:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_phase_balances(self, name):
        A = community_graph(240, 8, 12, mixing=0.1, shuffle=True, seed=7)
        cluster = SimulatedCluster(16)
        ALGORITHMS[name]().multiply(A, A, cluster)
        cluster.ledger.assert_conserved()
        report = cluster.ledger.conservation_report()
        assert all(row["imbalance"] == 0 for row in report.values())
        # The run actually moved data (the invariant is not vacuous).
        assert sum(row["bytes_received"] for row in report.values()) > 0


class TestSparsityAware1DBookkeeping:
    def test_compact_false_honoured_on_local_columns(self):
        """The compaction ablation must not compact the ``target == rank``
        path: with ``compact=False`` whole selected blocks are kept, so the
        uncompacted Ã can only be larger."""
        A = banded(200, 10, symmetric=True, seed=3)
        n_compact = (
            SparsityAware1D(block_split=4, compact=True)
            .multiply(A, A, SimulatedCluster(4))
            .C.nnz
        )
        res_loose = SparsityAware1D(block_split=4, compact=False).multiply(
            A, A, SimulatedCluster(4)
        )
        # Same numeric result either way …
        np.testing.assert_allclose(
            res_loose.C.to_dense(),
            SparsityAware1D(block_split=4, compact=True)
            .multiply(A, A, SimulatedCluster(4))
            .C.to_dense(),
        )
        assert res_loose.C.nnz == n_compact

    def test_cv_mema_definition_matches_estimator(self):
        """Executed CV/memA must equal the symbolic prediction byte-for-byte
        (one shared definition: nnz · BYTES_PER_ENTRY)."""
        A = community_graph(300, 10, 10, mixing=0.08, shuffle=True, seed=9)
        est = estimate_communication(A, nprocs=8, block_split=32)
        cluster = SimulatedCluster(8)
        result = SparsityAware1D(block_split=32).multiply(A, A, cluster)
        assert int(result.info["fetch_bytes"]) == est.total_bytes
        assert result.info["cv_over_memA"] == pytest.approx(est.cv_over_mema)
        # And the ledger's fetch phase agrees with both.
        fetch_received = sum(
            st.bytes_received for st in cluster.ledger.phases["fetch"]
        )
        assert fetch_received == est.total_bytes

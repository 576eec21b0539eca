"""Golden ledgers of the SUMMA baselines: literal digests of every modelled number.

Each case runs one 2D or 3D multiply on a generator matrix and hashes the
whole ledger — phase order, then per phase and rank the ``float.hex`` of the
comm/comp/other seconds and every integer counter (messages, gets, bytes
sent/received, flops, peak memory) — together with ``float.hex`` of the
elapsed time, the result info and the bytes of C's indptr/indices/data.  The
digests are literals, so any change to a charge (one ulp is enough), to the
phase layout or to C fails here.  The out-of-memory cases pin the rank and
byte count ``MemoryLimitExceeded`` names and the ledger at the moment it is
raised.

The digests hold under every ``REPRO_KERNEL`` value.  A change that is meant
to move the model regenerates them with::

    PYTHONPATH=src python tests/test_golden_ledger.py
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pytest

from repro.core import SparseSUMMA2D, SplitSpGEMM3D
from repro.matrices.generators import banded, community_graph, erdos_renyi
from repro.runtime import (
    CATEGORIES,
    PERLMUTTER,
    MemoryLimitExceeded,
    PhaseLedger,
    SimulatedCluster,
)
from repro.sparse import CSCMatrix


def _signed(M: CSCMatrix, seed: int) -> CSCMatrix:
    """``M`` with random signs and every seventh entry an explicit zero."""
    rng = np.random.default_rng(seed)
    data = M.data * rng.choice([-1.0, 1.0], size=M.nnz)
    data[::7] = 0.0
    return CSCMatrix(M.nrows, M.ncols, M.indptr.copy(), M.indices.copy(), data)


MATRICES = {
    "community": lambda: community_graph(240, 8, 12, mixing=0.1, shuffle=True, seed=7),
    "banded": lambda: banded(200, 6, seed=3),
    "signed": lambda: _signed(community_graph(160, 4, 8, mixing=0.2, seed=5), seed=6),
}

ALGORITHMS = {
    "2d": SparseSUMMA2D,
    "3d-l1": lambda: SplitSpGEMM3D(layers=1),
    "3d-l2": lambda: SplitSpGEMM3D(layers=2),
    "3d-l4": lambda: SplitSpGEMM3D(layers=4),
}


def ledger_digest(ledger: PhaseLedger, result=None) -> str:
    """SHA-256 over the ledger (and, given a result, its elapsed time, info and C)."""
    h = hashlib.sha256()
    for name in ledger.phase_order:
        h.update(name.encode() + b"\0")
        for st in ledger.phases[name]:
            fields = [float.hex(st.time[c]) for c in CATEGORIES] + [
                str(v)
                for v in (
                    st.messages_sent,
                    st.rdma_gets,
                    st.bytes_sent,
                    st.bytes_received,
                    st.flops,
                    st.peak_memory_bytes,
                )
            ]
            h.update(" ".join(fields).encode() + b"\n")
    if result is not None:
        h.update(float.hex(result.elapsed_time).encode())
        info = sorted((k, float.hex(float(v))) for k, v in result.info.items())
        h.update(repr(info).encode())
        C = result.C
        h.update(f"{C.shape} {C.indptr.dtype.str} {C.indices.dtype.str} "
                 f"{C.data.dtype.str}".encode())
        for arr in (C.indptr, C.indices, C.data):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _run(matrix: str, algorithm: str, nprocs: int, *, masked: bool = False) -> str:
    A = MATRICES[matrix]()
    cluster = SimulatedCluster(nprocs)
    kwargs = {}
    if masked:
        kwargs = {"mask": erdos_renyi(A.nrows, 3, seed=11), "mask_mode": "late"}
    result = ALGORITHMS[algorithm]().multiply(A, A, cluster, **kwargs)
    return ledger_digest(result.ledger, result)


def _run_oom(algorithm: str, nprocs: int, capacity: int) -> str:
    A = MATRICES["community"]()
    cluster = SimulatedCluster(
        nprocs, cost_model=PERLMUTTER.with_memory_capacity(capacity)
    )
    with pytest.raises(MemoryLimitExceeded) as caught:
        ALGORITHMS[algorithm]().multiply(A, A, cluster)
    exc = caught.value
    return f"{exc.rank}:{exc.needed}:{ledger_digest(cluster.ledger)}"


CASES = [
    (matrix, algorithm, nprocs)
    for matrix in MATRICES
    for algorithm in ALGORITHMS
    for nprocs in (4, 16, 64)
]

#: (algorithm, nprocs, per-rank memory capacity in bytes)
OOM_CASES = [("2d", 16, 30_500), ("3d-l4", 16, 34_500)]

GOLDEN: Dict[str, str] = {
    'community/2d/4': '13d77621bb1d0b76709f1046b6aed23f8803b0bf35f6c58f172918fc97d77f27',
    'community/2d/16': 'a5afd4ad878319aabe9ea91a9cce4757b406550ed73cd859ce351435a1f0a95b',
    'community/2d/64': 'f77daa964942e39590016efd8c35cc76a8371ca1082fef80ac9659cbbbbf2d61',
    'community/3d-l1/4': '39a4af782060c899bd2789e0eebe01b703f6e74a8e092d33f8683cc73d4cfc63',
    'community/3d-l1/16': 'a419157f97b5675e66bcd31cbfac4d98af00b4c4511174aebadd5c5d160eb883',
    'community/3d-l1/64': 'b3badaec830707a527c233fef7bd2f89e6d029ef5c597f17f9c93569601d344f',
    'community/3d-l2/4': '39a4af782060c899bd2789e0eebe01b703f6e74a8e092d33f8683cc73d4cfc63',
    'community/3d-l2/16': 'a419157f97b5675e66bcd31cbfac4d98af00b4c4511174aebadd5c5d160eb883',
    'community/3d-l2/64': 'b3badaec830707a527c233fef7bd2f89e6d029ef5c597f17f9c93569601d344f',
    'community/3d-l4/4': '34f5a38e304c82ed6e5cafb4a2f9540244bf4ee23ef006238a825698f061db7b',
    'community/3d-l4/16': '95ff4d767a05f79580a62be2581732c920431efdaedf32c7abfc2e76cfd9d12e',
    'community/3d-l4/64': '4472b6e67a1a9c803eb64e4a10145b4b6f3b1ef33e61fb4596407a9f962fd094',
    'banded/2d/4': 'a4fe81f87388e613eb5ea72b5deea0cbe9ba0f028ab06974bde38cf9c67a4f73',
    'banded/2d/16': '261118b8ee18c8969df5f4c93fcbdd68c01564063bce9ab61bedbd6c8fc60fbe',
    'banded/2d/64': 'a171e12ae835938e59608712240a4073db8d671768ddef2e8bca28260241f185',
    'banded/3d-l1/4': '6a67952effc76c9db732ad68a26bdfebb7acc9898d500adc64d68160e90d9505',
    'banded/3d-l1/16': 'f43d87d64be5d4317761e09675a269bb20cde13d9ed4088d6c3876e10f3f0d27',
    'banded/3d-l1/64': '7e191bc4c2efa323fcd8d6e76e457a161f27c72ed4a64debc6a8f24393e1f351',
    'banded/3d-l2/4': '6a67952effc76c9db732ad68a26bdfebb7acc9898d500adc64d68160e90d9505',
    'banded/3d-l2/16': 'f43d87d64be5d4317761e09675a269bb20cde13d9ed4088d6c3876e10f3f0d27',
    'banded/3d-l2/64': '7e191bc4c2efa323fcd8d6e76e457a161f27c72ed4a64debc6a8f24393e1f351',
    'banded/3d-l4/4': '1bdd1626e99b3ce44f89ce3207d35cd4e19833b6276b873e89e43ab0bd8334a8',
    'banded/3d-l4/16': '47e7afdcecdf9b9fbe398bdfe040c63b9f68c51a5549519866c050ada03af8b9',
    'banded/3d-l4/64': '5df47e9b171b32cbcc43cfd9ad07218f3223b7ea8f38fa61915299908c370d26',
    'signed/2d/4': '8cc8e8d05f0b6bee5836bcd22dda7af09adcb03d6754ae7bcf84a3f1f660cbe9',
    'signed/2d/16': '6845671b571aa3a5d9ebeb33b7d380758a95125b2d6454929576268df82cfbd5',
    'signed/2d/64': '74636ca023d088d6659f21a1165105b05a89ed8ac8508ae0904ab5c25b5e52a6',
    'signed/3d-l1/4': '1a8142622243531a2cbb8c26448a3d87ae6ad2a67ea9e5a0a2b71002ebde2d71',
    'signed/3d-l1/16': '6851a2254b52e6324d657cf7aa53e1a110e26211e1ca172bb093098dc166dab1',
    'signed/3d-l1/64': '3b99585b9bfa5832e155ec697ce6e35cb6d09afc6ed00a7df59f4067d011d738',
    'signed/3d-l2/4': '1a8142622243531a2cbb8c26448a3d87ae6ad2a67ea9e5a0a2b71002ebde2d71',
    'signed/3d-l2/16': '6851a2254b52e6324d657cf7aa53e1a110e26211e1ca172bb093098dc166dab1',
    'signed/3d-l2/64': '3b99585b9bfa5832e155ec697ce6e35cb6d09afc6ed00a7df59f4067d011d738',
    'signed/3d-l4/4': '9d77ef939017fb56a9f73e384e2d561ecf5a723d28a14c97c14712937e3499ef',
    'signed/3d-l4/16': '28aa16e454d09b8db7e3e0fb3c4894982b497a1cfea8ca129bd167fbdb1e9716',
    'signed/3d-l4/64': '3e465a54cebd9bf5baa47e7376ce6b48fe00db0f1e5c7ff4258d61f2acd7e956',
}

GOLDEN_MASKED: Dict[str, str] = {
    '2d/16': 'c57573b2c8760d2118661a325b43230bfb4233bb071f320c542b6678005c7c37',
    '2d/64': 'e6a7e044cc4703b0ac5cb0602e551cae2ecdfd49b7167ae418c14cac2c8edb2e',
}

GOLDEN_OOM: Dict[str, str] = {
    '2d/16/30500': '5:30888:c4ba91b1565268254bdce67c5a5ce7c3b2f85ee977a7bfad48a157915ac7c8cb',
    '3d-l4/16/34500': '4:36352:340c42ddd377c7989ab3f26de9c505e3faef007e5877d10bf15efcda8df7e605',
}


def _key(*parts) -> str:
    return "/".join(str(p) for p in parts)


@pytest.mark.parametrize("matrix,algorithm,nprocs", CASES)
def test_ledger_and_product_match_golden(matrix, algorithm, nprocs):
    assert _run(matrix, algorithm, nprocs) == GOLDEN[_key(matrix, algorithm, nprocs)]


@pytest.mark.parametrize("nprocs", [16, 64])
def test_late_masked_2d_matches_golden(nprocs):
    assert _run("community", "2d", nprocs, masked=True) == GOLDEN_MASKED[_key("2d", nprocs)]


@pytest.mark.parametrize("algorithm,nprocs,capacity", OOM_CASES)
def test_out_of_memory_rank_and_ledger_match_golden(algorithm, nprocs, capacity):
    assert _run_oom(algorithm, nprocs, capacity) == GOLDEN_OOM[
        _key(algorithm, nprocs, capacity)
    ]


def _regenerate() -> None:
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {_key(*case)!r}: {_run(*case)!r},")
    print("}\n\nGOLDEN_MASKED = {")
    for nprocs in (16, 64):
        print(f"    {_key('2d', nprocs)!r}: {_run('community', '2d', nprocs, masked=True)!r},")
    print("}\n\nGOLDEN_OOM = {")
    for case in OOM_CASES:
        print(f"    {_key(*case)!r}: {_run_oom(*case)!r},")
    print("}")


if __name__ == "__main__":
    _regenerate()

"""Golden ledgers of every driver: literal digests of every modelled number.

Each case runs one 1D, 2D or 3D multiply on a generator matrix and hashes the
whole ledger — phase order, then per phase and rank the ``float.hex`` of the
comm/comp/other seconds and every integer counter (messages, gets, bytes
sent/received, flops, peak memory) — together with ``float.hex`` of the
elapsed time, the result info and the bytes of C's indptr/indices/data.  The
digests are literals, so any change to a charge (one ulp is enough), to the
phase layout or to C fails here.  The out-of-memory cases pin the rank and
byte count ``MemoryLimitExceeded`` names and the ledger at the moment it is
raised, and the 1D estimator's per-rank prediction is pinned the same way.

The digests hold under every ``REPRO_KERNEL`` value.  A change that is meant
to move the model regenerates them with::

    PYTHONPATH=src python tests/test_golden_ledger.py
"""

from __future__ import annotations

import hashlib
from typing import Dict

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
)
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
    "1d": SparsityAware1D,
    "1d-k8": lambda: SparsityAware1D(block_split=8),
    "1d-k8-uncompacted": lambda: SparsityAware1D(block_split=8, compact=False),
    "1d-naive-block-row": NaiveBlockRow1D,
    "1d-improved-block-row": ImprovedBlockRow1D,
    "1d-outer-product": OuterProduct1D,
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


def _run(matrix: str, algorithm: str, nprocs: int, *, mask_mode: str = "") -> str:
    A = MATRICES[matrix]()
    cluster = SimulatedCluster(nprocs)
    kwargs = {}
    if mask_mode:
        kwargs = {"mask": erdos_renyi(A.nrows, 3, seed=11), "mask_mode": mask_mode}
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


def _estimate(matrix: str, nprocs: int) -> str:
    est = estimate_communication(MATRICES[matrix](), nprocs=nprocs, block_split=8)
    h = hashlib.sha256(str(est.mem_a_bytes).encode())
    for arr in (est.per_rank_bytes, est.per_rank_columns, est.per_rank_messages):
        h.update(arr.dtype.str.encode() + np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


CASES = [
    (matrix, algorithm, nprocs)
    for matrix in MATRICES
    for algorithm in ALGORITHMS
    for nprocs in (4, 16, 64)
]

#: (algorithm, nprocs, mask mode), all on ``community``
MASKED_CASES = [
    ("1d", 16, "late"),
    ("1d", 16, "early"),
    ("2d", 16, "late"),
    ("2d", 64, "late"),
]

ESTIMATE_CASES = [(matrix, nprocs) for matrix in MATRICES for nprocs in (4, 16, 64)]

#: (algorithm, nprocs, per-rank memory capacity in bytes)
OOM_CASES = [("2d", 16, 30_500), ("3d-l4", 16, 34_500)]

GOLDEN: Dict[str, str] = {
    'community/1d/4': '78437a7f53f3207106080ac4289bbeecd075935c7fd4ee603758661b953cbd0a',
    'community/1d/16': '6348094041d80cf855cba02f5286dd80b2b9358d0fe3851dea5334ce26509c1b',
    'community/1d/64': 'c8cff934e98a636ef91f844de4e7a785b48ac4a4c49447116c6ab6518ba10154',
    'community/1d-k8/4': 'ae0798207381ec70082cd6ba2ee58bc50d6849a9dcfee08d1623270c068bd3b4',
    'community/1d-k8/16': '7ebd491ad13860cfccb3ec0e74d668969939ec07bec2047e69ae2922031f9f4c',
    'community/1d-k8/64': 'c7aeb5f706a1693f6d3f53b6343c4f33401ac34f13b99ac270269cbeb9a6de29',
    'community/1d-k8-uncompacted/4': '4d02f14ff8473fe6778389ac86a05c6628d7057bd30e89253148e41020e32494',
    'community/1d-k8-uncompacted/16': 'c18620c4f0c19fa49bb4ba714988dd8fad71cfbc1b078dcd1f47d8a7a487adf0',
    'community/1d-k8-uncompacted/64': 'c7aeb5f706a1693f6d3f53b6343c4f33401ac34f13b99ac270269cbeb9a6de29',
    'community/1d-naive-block-row/4': '9c614a03784d1b252438f741b834246de53b0a1e87b62b2922d553755377ae7e',
    'community/1d-naive-block-row/16': 'a83ac5b3b5e6184e63124a9c0dc601016a51853ebc9ad114111132ddba23ca73',
    'community/1d-naive-block-row/64': 'fa139f8973af193c02a22131f7a0fb399fe3964eb919ef405111c5a852f87626',
    'community/1d-improved-block-row/4': 'ec978bb0b83b75aafa38258a6a5364a356d69b8f5bcf7c2aea665f500d85d3a5',
    'community/1d-improved-block-row/16': 'a2dbb9a6be44165fedf49cc739f34375c130a3b929992b6305d685c6ee71e7fa',
    'community/1d-improved-block-row/64': '949b15750d66ce8e1482f24e32eca475f35e546be2df64d2afdfee926703af45',
    'community/1d-outer-product/4': '0d90debc76c9b7806faa2924a8ae83a370670f7ae01773708dcb1354109cbb04',
    'community/1d-outer-product/16': '4389f03a7df4fa094fa25181656823caa1cd972d52ca80de8b99fc096f3301da',
    'community/1d-outer-product/64': 'b42db5aafbe01604cf5cb8ebe7a93d4e73cf86020db19d4fbe21f35fd29abd75',
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
    'banded/1d/4': 'e19aa86f8177323ffa377619b952312cf86deb9ca6fcca9acbf4ef8cfe1782bf',
    'banded/1d/16': 'c723c30918a026e05f0c81138f3ebf66309c0d04b6ac75bf26380f59b1667bf5',
    'banded/1d/64': '8f3fd2f9ead22e013fe9e8cc3f6a8529e9ecc994c0c7683adacc07c203b292c8',
    'banded/1d-k8/4': '778dc81339682710b40ed37362baf5bcbcd719ffb102ad4a3dc60d2cfb5b4bb1',
    'banded/1d-k8/16': 'ae4c1874e1b8b28959da034bbb7d3bc219d8e7c1cf32f7a2d8f097bd89a7e90f',
    'banded/1d-k8/64': '3b7388b9facc7c00fef95b7d39de6a92909705152ff7115492445c5bcaaa7e9f',
    'banded/1d-k8-uncompacted/4': 'b9280398d928e4134cc846864ef34cb488954214be9c78b178579ba56e47375e',
    'banded/1d-k8-uncompacted/16': '49f2c590146f213f1eefa01c3e77760b176436be6985be380430a24083bf7148',
    'banded/1d-k8-uncompacted/64': '3b7388b9facc7c00fef95b7d39de6a92909705152ff7115492445c5bcaaa7e9f',
    'banded/1d-naive-block-row/4': '6d452c96a58c679cf7e1c47979d4e4a30f64801e512aab58e3e966ff10432dec',
    'banded/1d-naive-block-row/16': 'e4deee4fc07bb9d92b9daa8b620baaf375736a07398f9a138d705ab9bcfbe8f3',
    'banded/1d-naive-block-row/64': '52fafa0c2fb8e0c143eb73f175cc18b8ef786c3ffb94bd962149e38f22880f61',
    'banded/1d-improved-block-row/4': '994c1627031cb21d4aec913163b00d81263bc26f124908bc95bb58bee21834c7',
    'banded/1d-improved-block-row/16': 'c37abb7268ebee0b3cad1661faf78c73085fa2af776093c85f373e0ca90d0fa7',
    'banded/1d-improved-block-row/64': '820a39d5db39ea708c87515a7f00fd63127d933364caec2d5086b3db76724c31',
    'banded/1d-outer-product/4': '91fe98e2ef11fbbc686567aa18ecd72c6d10b176b4b3c7f1006b2e1a8ffec127',
    'banded/1d-outer-product/16': 'b1cd481967ce18992c7c77568bce9612e0c1ec573e924c6848d3a4b4c32c173f',
    'banded/1d-outer-product/64': 'b84d0ae9070e20a923a23af73f3d0775a60f1d119e41f30d709dea347ac5ed26',
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
    'signed/1d/4': '6ae1815f5f3d84f308ff9d0d6ca3084e244533a7a7439be44b3560a0f75d9ed3',
    'signed/1d/16': '196b64b5a08b09110ce807f4935f1e58cdc673d378541bddb8de3fa2b489d44d',
    'signed/1d/64': '3022a953f27865a49129577bc87c26220da48dd1d89c3788ab94a6ee1831a391',
    'signed/1d-k8/4': 'f2e87ba258dc1cdcdee905d02f95addabe71dd5b93902b267e7031d06d2b3b4f',
    'signed/1d-k8/16': 'd2219c6dbe527ac7b5cb661a557e4184447fbfcf59ec7945be0e1a0b5c94b7da',
    'signed/1d-k8/64': '36362889c24d9ecde4009ce00e19b44d0561714e86e5aa3773100be6014e921d',
    'signed/1d-k8-uncompacted/4': '227d67b83c8675be746f7fd96a4ab99e808c24316b1aca3ac55769928001a991',
    'signed/1d-k8-uncompacted/16': 'f86def33b53d57cfb1fd9139f8b146c8ad79c1027243a0f8ce9f2c28aac3f131',
    'signed/1d-k8-uncompacted/64': '36362889c24d9ecde4009ce00e19b44d0561714e86e5aa3773100be6014e921d',
    'signed/1d-naive-block-row/4': 'aec300f6ba6d234b203826f6cde554e26d9a5ea08ad72dad197cda53d91ec5c3',
    'signed/1d-naive-block-row/16': '6240ccc0c62a80dded0afa28837dc2b13d74f241886fd91a8afeef984b789d11',
    'signed/1d-naive-block-row/64': '0659bd2463c7849ed563cdeb5b90023ca79ec33addcbfff5c0c70d0e7cf343b6',
    'signed/1d-improved-block-row/4': 'b2ded8f026e2ffded924df88f7922739c8de22d6a4f2c518cc58b43326f7cb3e',
    'signed/1d-improved-block-row/16': '2ca5145955d68803fb41c32a4e5d069c6cb56e5cf158a4f2a34849cc017d8747',
    'signed/1d-improved-block-row/64': '0b608736832990f7f06657383189704c383c31934ed0c6979177ebab12e8a8a1',
    'signed/1d-outer-product/4': '9f459eb845ee9a46189fcc45c40b160bc9ca86bcf105f51ce56ddc4766e2e260',
    'signed/1d-outer-product/16': 'eabee35b6d2fe08907cc3c83fd00733b1c66905054c689ea8cda2a7a7566e460',
    'signed/1d-outer-product/64': '9f6867ca896117f324958f803154c66ae441335c33cae25d49f98ec6cf7e24c6',
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
    '1d/16/late': 'bc744213cb4ebf46742dc9feb7d65aa7c5c028df67e9385014df0e8208a6d7f6',
    '1d/16/early': '3ad2121ff6bd568e9f32675b8ad93b05f122f17a64aacd16941fcefdd600d945',
    '2d/16/late': 'c57573b2c8760d2118661a325b43230bfb4233bb071f320c542b6678005c7c37',
    '2d/64/late': 'e6a7e044cc4703b0ac5cb0602e551cae2ecdfd49b7167ae418c14cac2c8edb2e',
}

GOLDEN_ESTIMATE: Dict[str, str] = {
    'community/4': '9ef9ca8ab098d281e4e36f23970a8962ad65aec64a08c2786ddc9f4bc536f396',
    'community/16': '80116551ff191e400f120c29c98684f3fde886fec90203060de7d426e9b8f331',
    'community/64': 'e6258cf09dee37176fe616d65b0cc267fab14e0a315b3bdce3e1fb187d762df4',
    'banded/4': 'acd8f07a483ff8040b16548ff84e06fdc65049158f5e0d57a5f9aa4c59f7a4fa',
    'banded/16': '04cd19d00552cba343aaba907182ff4afcaab61d0bd682c3e20250597cdbe079',
    'banded/64': '383192e2678850a9ae028b4dadcfa8b46f5ded8e18d9399e5f4dd3b908313286',
    'signed/4': '69a08165f3c3f19ecff8d086c83ffe76ca285227f20f247d8912b7957834b87c',
    'signed/16': '7394be9114aa11b9b133f17e5353220f225d83ae2719094f5a3579bb544510c7',
    'signed/64': '7eabd7b21fea13437fdd60ee6cdeb6496b7f081947e4a7e88561989a68478a3e',
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
    assert _run("community", "2d", nprocs, mask_mode="late") == GOLDEN_MASKED[
        _key("2d", nprocs, "late")
    ]


@pytest.mark.parametrize("mask_mode", ["late", "early"])
def test_masked_1d_matches_golden(mask_mode):
    assert _run("community", "1d", 16, mask_mode=mask_mode) == GOLDEN_MASKED[
        _key("1d", 16, mask_mode)
    ]


@pytest.mark.parametrize("matrix,nprocs", ESTIMATE_CASES)
def test_1d_estimate_matches_golden(matrix, nprocs):
    assert _estimate(matrix, nprocs) == GOLDEN_ESTIMATE[_key(matrix, nprocs)]


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
    for algorithm, nprocs, mode in MASKED_CASES:
        print(f"    {_key(algorithm, nprocs, mode)!r}: "
              f"{_run('community', algorithm, nprocs, mask_mode=mode)!r},")
    print("}\n\nGOLDEN_ESTIMATE = {")
    for case in ESTIMATE_CASES:
        print(f"    {_key(*case)!r}: {_estimate(*case)!r},")
    print("}\n\nGOLDEN_OOM = {")
    for case in OOM_CASES:
        print(f"    {_key(*case)!r}: {_run_oom(*case)!r},")
    print("}")


if __name__ == "__main__":
    _regenerate()

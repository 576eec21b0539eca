"""The SUMMA stage engine shared by the 2D and 3D baselines.

Both baselines run the same stage loop on a ``q × q`` block grid — 2D SUMMA
once over all ranks, 3D split SpGEMM once per layer.  At stage ``s`` the owner
of ``A(i, s)`` broadcasts it along process row ``i``, the owner of ``B(s, j)``
along process column ``j``, and every process accumulates
``C(i, j) += A(i, s) · B(s, j)``.

The simulation works one *block row* at a time.  The stage's B block row is
stacked once and each ``A(i, s)`` multiplies it in one kernel call, so the
stage's ``C(i, :)`` partials are column slices of one product (columns are
independent in every kernel variant, so each slice is bit-identical to a
per-block product).  The engine keeps those block-row products instead of
slicing them, reads every per-block count off their ``indptr``, and charges
the whole stage — flops, comp seconds and the memory high-water mark of every
active ``(i, j)`` — with one fused bulk call.  :meth:`SummaPartials.merge`
then sums each block row once and hands out the C blocks as column views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distribution import DistributedBlocks2D
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, add_matrices, local_spgemm, stack_columns
from ..sparse.csc import build_csc_unchecked

_INDEX_DTYPE = np.int64


def _column_view(M: CSCMatrix, start: int, stop: int) -> CSCMatrix:
    """Columns ``start:stop`` of ``M`` sharing its index and value arrays."""
    lo, hi = M.indptr[start], M.indptr[stop]
    return build_csc_unchecked(
        M.nrows, stop - start, M.indptr[start : stop + 1] - lo,
        M.indices[lo:hi], M.data[lo:hi],
    )


@dataclass
class SummaPartials:
    """The stage products of one SUMMA sweep, ready to be merged into C blocks.

    ``products[i]`` holds block row ``i``'s stage products in stage order.
    Per block, ``pieces`` counts the stages that contributed a partial (the
    ``A(i, s)`` and ``B(s, j)`` both non-empty), ``nnz`` sums their entries,
    and ``last`` indexes the latest contributing product in ``products[i]``.
    """

    ranks: np.ndarray
    row_heights: List[int]
    col_offsets: List[int]
    products: List[List[CSCMatrix]]
    pieces: np.ndarray
    nnz: np.ndarray
    last: np.ndarray

    def merge(self, cluster: SimulatedCluster) -> Dict[Tuple[int, int], CSCMatrix]:
        """Sum every block row's products once; return each C(i, j) as a view.

        Charges each process the entries of its own partials, exactly what a
        per-block merge of the partials charges.  A block with one partial is
        sliced from that product, so its values are never re-summed (a lone
        product passes through unmerged); a block with none is empty.  Each
        row's products are released once merged (bounding peak memory), so
        merge once.
        """
        q = len(self.products)
        blocks: Dict[Tuple[int, int], CSCMatrix] = {}
        for i in range(q):
            row, self.products[i] = self.products[i], []
            pieces = self.pieces[i].tolist()
            merged = None
            if max(pieces) > 1:
                with cluster.measured(int(self.ranks[i, 0]), "comp"):
                    merged = add_matrices(row)
            last = self.last[i].tolist()
            for j in range(q):
                cs, ce = self.col_offsets[j], self.col_offsets[j + 1]
                if pieces[j] == 0:
                    blocks[(i, j)] = CSCMatrix.empty(self.row_heights[i], ce - cs)
                else:
                    src = merged if pieces[j] > 1 else row[last[j]]
                    blocks[(i, j)] = _column_view(src, cs, ce)
        merge_flops = np.zeros(cluster.nprocs, dtype=_INDEX_DTYPE)
        merge_flops[self.ranks.ravel()] = self.nnz.ravel()
        cluster.charge_compute_bulk(merge_flops)
        return blocks


def run_summa_stages(
    cluster: SimulatedCluster,
    dist_a: DistributedBlocks2D,
    dist_b: DistributedBlocks2D,
    ranks: np.ndarray,
    *,
    kernel: str,
    phase: str,
    resident_bytes: Optional[np.ndarray] = None,
) -> SummaPartials:
    """Run the stages of one SUMMA sweep and charge them.

    ``ranks[i, j]`` is the process owning block ``(i, j)``; ``phase`` is the
    stage phase name with a ``{}`` for the stage index.  Each process's
    modelled memory at stage ``s`` is its ``resident_bytes`` (if any) plus
    the ``A(i, s)`` and ``B(s, j)`` it holds plus all its partials so far.
    """
    q = ranks.shape[0]
    groups = ranks.tolist()
    col_groups = ranks.T.tolist()
    widths = np.array([dist_b.block(0, j).ncols for j in range(q)], dtype=_INDEX_DTYPE)
    col_offsets = [0] + np.cumsum(widths).tolist()
    products: List[List[CSCMatrix]] = [[] for _ in range(q)]
    pieces = np.zeros((q, q), dtype=_INDEX_DTYPE)
    nnz = np.zeros((q, q), dtype=_INDEX_DTYPE)
    last = np.zeros((q, q), dtype=_INDEX_DTYPE)
    # Bytes each process holds across stages: resident blocks plus partials.
    held = np.zeros((q, q), dtype=_INDEX_DTYPE)
    if resident_bytes is not None:
        held += resident_bytes
    for s in range(q):
        a_blocks = [dist_a.block(i, s) for i in range(q)]
        b_blocks = [dist_b.block(s, j) for j in range(q)]
        with cluster.phase(phase.format(s)):
            cluster.comm.bcast_many(
                [(a_blocks[i], groups[i][s], groups[i]) for i in range(q)]
                + [(b_blocks[j], col_groups[j][s], col_groups[j]) for j in range(q)]
            )
            b_row = stack_columns(b_blocks, nrows=b_blocks[0].nrows)
            b_ent = b_row.indptr[col_offsets]
            # flops[i, j] = Σ over B(s, j)'s entries of nnz(A(i, s)(:, k)), for
            # every block at once via exact int64 prefix-sum differences.
            a_col_nnz = np.stack([a.column_nnz() for a in a_blocks])
            prefix = np.zeros((q, b_row.nnz + 1), dtype=_INDEX_DTYPE)
            np.cumsum(a_col_nnz[:, b_row.indices], axis=1, out=prefix[:, 1:])
            flops = prefix[:, b_ent[1:]] - prefix[:, b_ent[:-1]]
            a_live = np.array([a.nnz > 0 for a in a_blocks])
            active = a_live[:, None] & (np.diff(b_ent) > 0)[None, :]
            stage_nnz = np.zeros((q, q), dtype=_INDEX_DTYPE)
            entry_bytes = np.zeros(q, dtype=_INDEX_DTYPE)
            for i in np.flatnonzero(a_live).tolist():
                with cluster.measured(groups[i][s], "comp"):
                    c_row = local_spgemm(a_blocks[i], b_row, kernel=kernel)
                stage_nnz[i] = np.diff(c_row.indptr[col_offsets])
                entry_bytes[i] = c_row.indices.itemsize + c_row.data.itemsize
                products[i].append(c_row)
                last[i, active[i]] = len(products[i]) - 1
            # A partial's memory_bytes(): int64 indptr plus its entries.
            held += np.where(
                active, 8 * (widths + 1) + entry_bytes[:, None] * stage_nnz, 0
            )
            pieces += active
            nnz += stage_nnz  # zero wherever a block is inactive
            a_bytes = np.array([a.memory_bytes() for a in a_blocks], dtype=_INDEX_DTYPE)
            b_bytes = np.array([b.memory_bytes() for b in b_blocks], dtype=_INDEX_DTYPE)
            memory = a_bytes[:, None] + b_bytes[None, :] + held
            cluster.charge_compute_and_memory_bulk(
                ranks[active], flops[active], memory[active]
            )
    return SummaPartials(
        ranks=ranks,
        row_heights=[dist_a.block(i, 0).nrows for i in range(q)],
        col_offsets=col_offsets,
        products=products,
        pieces=pieces,
        nnz=nnz,
        last=last,
    )

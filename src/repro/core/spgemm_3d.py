"""3D Split SpGEMM baseline (Azad et al. 2016), the CombBLAS 3D algorithm.

Processes form a √(P/c) × √(P/c) × c grid.  The inner dimension is split
across the ``c`` layers: layer ``l`` owns the slices ``A(:, K_l)`` and
``B(K_l, :)`` (2D-distributed within the layer), runs a 2D SUMMA restricted
to the layer producing a *partial* ``C^(l)``, and the partial results are
summed across layers with an AllToAll along the layer ("fiber") dimension
followed by a local merge.

Reducing the per-layer grid from √P to √(P/c) shrinks the broadcast groups,
which is where the communication-volume advantage over plain 2D SUMMA comes
from; the price is the cross-layer merge.  The paper sweeps all valid layer
counts and reports the best — :meth:`SplitSpGEMM3D.best_layer_sweep` does the
same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distribution import (
    DistributedBlocks2D,
    LayerSplit3D,
    ProcessGrid3D,
    valid_layer_counts,
)
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, add_matrices, stack_columns
from ..sparse.ops import column_blocks
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_blocks_2d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, as_operand
from .summa import run_summa_stages

__all__ = ["SplitSpGEMM3D"]


@dataclass
class SplitSpGEMM3D(DistributedSpGEMMAlgorithm):
    """3D split SpGEMM with ``layers`` layers (``P/layers`` must be a perfect square).

    An invalid ``layers`` falls back to the nearest valid count.  The
    default ``layers=2`` is invalid for every ``P = 4^k``, where it falls
    back to one layer: 2D SUMMA plus a no-op layer merge.  So every ``3d``
    config at P = 4, 16, 64, 256 or 1024 runs with one layer unless
    ``layers`` is set; ``info["layers"]`` reports the count that ran.
    """

    layers: int = 2
    kernel: str = "hybrid"
    name: str = field(default="3d-split", init=False)

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        mask=None,
        mask_mode: str = "late",
        **kwargs,
    ) -> PreparedMultiply:
        op_a = as_operand(A)
        op_b = as_operand(B)
        if op_a.ncols != op_b.nrows:
            raise ValueError(
                f"inner dimensions do not match: {op_a.shape} x {op_b.shape}"
            )
        P = cluster.nprocs
        layers = self.layers
        valid = valid_layer_counts(P)
        if layers not in valid:
            # Fall back to the nearest valid layer count (e.g. layers=2 with
            # P=4 is impossible because P/c must stay a perfect square).
            layers = min(valid, key=lambda c: (abs(c - self.layers), c))
        grid = ProcessGrid3D.from_nprocs(P, layers)
        # The layer split distributes both operands jointly (the inner
        # dimension is sliced across layers), so residency of a single
        # operand cannot be reused here; non-global inputs assemble first.
        split = LayerSplit3D.from_global(
            op_a.global_matrix(), op_b.global_matrix(), grid
        )
        op_m = None
        if mask is not None:
            validate_mask_mode(mask_mode)
            # After the cross-layer merge C lives on the layer grid's (i, j)
            # blocks, so the mask follows that layout.
            op_m = coerce_mask_blocks_2d(
                mask,
                grid.layer_grid,
                shape=(op_a.nrows, op_b.ncols),
                row_bounds=split.a_layers[0].row_bounds,
                col_bounds=split.b_layers[0].col_bounds,
            )
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=op_a,
            b=op_b,
            extras={"grid": grid, "split": split},
            mask=op_m,
            mask_mode=mask_mode,
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        grid: ProcessGrid3D = prepared.extras["grid"]
        split: LayerSplit3D = prepared.extras["split"]
        P = cluster.nprocs
        scope = cluster.phase_prefix

        # Per-layer 2D SUMMA producing the partial C^(l) blocks.
        layer_ranks = np.arange(P // grid.layers).reshape(grid.prows, grid.pcols)
        partials = [
            run_summa_stages(
                cluster, split.a_layers[l], split.b_layers[l], layer_ranks + l * layer_ranks.size,
                kernel=self.kernel, phase=f"layer{l}-stage{{}}",
            )
            for l in range(grid.layers)
        ]

        # Cross-layer reduction: AllToAll along each fiber + local merge.
        # Each fiber position (i, j) splits its partial C(i, j) into `layers`
        # column chunks; layer l ends up owning chunk l of everyone's partial.
        row_bounds = split.a_layers[0].row_bounds
        col_bounds = split.b_layers[0].col_bounds
        with cluster.phase("layer-merge"):
            layer_blocks = [p.merge(cluster) for p in partials]
            if grid.layers == 1:
                # One layer: each process's chunk is its whole partial, so the
                # exchange is empty and the merge of one chunk only charges.
                c_blocks = layer_blocks[0]
                chunk_nnz = [block.nnz for block in c_blocks.values()]
            else:
                c_blocks, chunk_nnz = self._exchange_chunks(
                    cluster, grid, layer_blocks, row_bounds, col_bounds
                )
            cluster.charge_compute_bulk(chunk_nnz)

        # C stays distributed over the layer grid's (i, j) blocks (each block
        # fully merged across layers); the global matrix assembles lazily.
        op_c = DistributedOperand.blocks_2d(
            DistributedBlocks2D(
                nrows=prepared.a.nrows,
                ncols=prepared.b.ncols,
                grid=grid.layer_grid,
                row_bounds=list(row_bounds),
                col_bounds=list(col_bounds),
                blocks=c_blocks,
            )
        )

        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        info = {"layers": float(grid.layers), "output_nnz": float(op_c.nnz)}
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=info,
            distributed_c=op_c,
        )

    @staticmethod
    def _exchange_chunks(cluster, grid, layer_blocks, row_bounds, col_bounds):
        """AllToAll the partials' column chunks along each fiber and merge them;
        return the C blocks and, per rank, the entries its merge summed."""
        buffers: Dict[int, Dict[int, object]] = {r: {} for r in range(cluster.nprocs)}
        # chunks[(i, j)][l][d]: chunk d of layer l's partial C(i, j), bound for layer d.
        chunks: Dict[Tuple[int, int], List[List[CSCMatrix]]] = {}
        for i, j in layer_blocks[0]:
            cs, ce = col_bounds[j]
            bounds = column_blocks(ce - cs, grid.layers)
            chunks[(i, j)] = [
                [layer[(i, j)].extract_column_range(*b) for b in bounds]
                for layer in layer_blocks
            ]
            for l, row in enumerate(chunks[(i, j)]):
                for d, chunk in enumerate(row):
                    if d != l and chunk.nnz:
                        buffers[grid.rank_of(i, j, l)][grid.rank_of(i, j, d)] = chunk
        cluster.comm.alltoallv(buffers)
        # Local merge of the received chunks; reassemble each (i, j) block.
        c_blocks: Dict[Tuple[int, int], CSCMatrix] = {}
        chunk_nnz = [0] * cluster.nprocs
        for (i, j), per_layer in chunks.items():
            merged = []
            for d in range(grid.layers):
                pieces = [row[d] for row in per_layer]
                rank = grid.rank_of(i, j, d)
                with cluster.measured(rank, "comp"):
                    merged.append(add_matrices(pieces))
                chunk_nnz[rank] = sum(p.nnz for p in pieces)
            c_blocks[(i, j)] = stack_columns(merged, nrows=row_bounds[i][1] - row_bounds[i][0])
        return c_blocks, chunk_nnz

    # ------------------------------------------------------------------
    @classmethod
    def best_layer_sweep(
        cls,
        A,
        B,
        nprocs: int,
        *,
        cost_model=None,
        kernel: str = "hybrid",
        layer_candidates: Optional[List[int]] = None,
    ) -> Tuple["SpGEMMResult", int]:
        """Run every valid layer count and return the fastest result.

        Mirrors the paper's protocol: "For the 3D algorithm, we explored all
        possible layer parameters and selected the optimal configuration."
        """
        from ..runtime import PERLMUTTER, SimulatedCluster

        model = cost_model or PERLMUTTER
        candidates = layer_candidates or [c for c in valid_layer_counts(nprocs) if c > 1]
        if not candidates:
            candidates = [1]
        best: Optional[SpGEMMResult] = None
        best_layers = candidates[0]
        for layers in candidates:
            cluster = SimulatedCluster(nprocs, cost_model=model)
            result = cls(layers=layers, kernel=kernel).multiply(A, B, cluster)
            if best is None or result.elapsed_time < best.elapsed_time:
                best = result
                best_layers = layers
        assert best is not None
        return best, best_layers

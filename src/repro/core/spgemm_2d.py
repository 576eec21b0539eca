"""2D Sparse SUMMA baseline (Buluç & Gilbert), the CombBLAS 2D algorithm.

Processes form a √P × √P grid; every matrix is block-distributed over the
grid.  The multiplication runs in √P stages: at stage ``s`` the owners of the
``A(i, s)`` blocks broadcast them along their process *row* and the owners of
``B(s, j)`` broadcast along their process *column*; every process then
accumulates ``C(i, j) += A(i, s) · B(s, j)`` locally.

The paper's experimental protocol applies a random symmetric permutation to
the inputs before running 2D SUMMA (load balancing); that is handled by the
caller (:mod:`repro.apps.squaring` et al.) so this class stays a pure
algorithm.  Communication is two-sided broadcast — charged with packing on
both sides — which is exactly the cost structure the 1D RDMA design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distribution import DistributedBlocks2D, ProcessGrid2D
from ..runtime import SimulatedCluster
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_blocks_2d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, as_operand
from .summa import run_summa_stages

__all__ = ["SparseSUMMA2D"]


@dataclass
class SparseSUMMA2D(DistributedSpGEMMAlgorithm):
    """2D sparse SUMMA on a √P × √P process grid."""

    kernel: str = "hybrid"
    name: str = field(default="2d-summa", init=False)

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
        grid = ProcessGrid2D.square(P)
        # The SUMMA stages need A's column splits aligned with B's row splits,
        # which from_global guarantees; non-global operands (a previous C) are
        # assembled first — the 2D baseline has no stationary-layout reuse,
        # which is exactly the asymmetry the paper's 1D design exploits.
        dist_a = DistributedBlocks2D.from_global(op_a.global_matrix(), grid)
        dist_b = DistributedBlocks2D.from_global(op_b.global_matrix(), grid)
        op_m = None
        if mask is not None:
            validate_mask_mode(mask_mode)
            # C(i, j) lives on rank (i, j) with A's row split and B's column
            # split, so the mask block layout mirrors that exactly.
            op_m = coerce_mask_blocks_2d(
                mask,
                grid,
                shape=(op_a.nrows, op_b.ncols),
                row_bounds=dist_a.row_bounds,
                col_bounds=dist_b.col_bounds,
            )
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=DistributedOperand.blocks_2d(dist_a),
            b=DistributedOperand.blocks_2d(dist_b),
            extras={"grid": grid},
            mask=op_m,
            mask_mode=mask_mode,
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        grid: ProcessGrid2D = prepared.extras["grid"]
        dist_a: DistributedBlocks2D = prepared.a.dist
        dist_b: DistributedBlocks2D = prepared.b.dist
        scope = cluster.phase_prefix
        ranks = np.arange(grid.prows * grid.pcols).reshape(grid.prows, grid.pcols)
        # Every process keeps its own A(i, j) and B(i, j) through all stages.
        resident_bytes = np.array([
            [dist_a.block(i, j).memory_bytes() + dist_b.block(i, j).memory_bytes()
             for j in range(grid.pcols)]
            for i in range(grid.prows)
        ], dtype=np.int64)
        partials = run_summa_stages(
            cluster, dist_a, dist_b, ranks, kernel=self.kernel, phase="stage-{}",
            resident_bytes=resident_bytes,
        )
        # Final local merge of the per-stage partials into each C block.
        with cluster.phase("merge"):
            c_blocks = partials.merge(cluster)

        dist_c = DistributedBlocks2D(
            nrows=dist_a.nrows,
            ncols=dist_b.ncols,
            grid=grid,
            row_bounds=dist_a.row_bounds,
            col_bounds=dist_b.col_bounds,
            blocks=c_blocks,
        )
        op_c = DistributedOperand.blocks_2d(dist_c)
        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        info = {"grid": float(grid.prows), "output_nnz": float(op_c.nnz)}
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=cluster.nprocs,
            info=info,
            distributed_c=op_c,
        )

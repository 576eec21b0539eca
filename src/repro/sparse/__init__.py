"""Local sparse-matrix substrate: CSC container, kernels, and helpers.

This subpackage is the single-process foundation the distributed algorithms
are built on.  Everything here is deterministic, numpy-backed, and oblivious
to the runtime/distribution layers.
"""

from .csc import CSCMatrix
from .conversion import as_csc, csc_from_scipy, to_scipy
from .flops import (
    estimate_output_nnz_upper_bound,
    per_column_flops,
    spgemm_flops,
)
from .kernels import (
    KERNEL_VARIANTS,
    kernel_variant,
    requested_kernel_variant,
    resolve_kernel_variant,
    set_kernel_variant,
)
from .local_spgemm import (
    KERNELS,
    SpGEMMKernelStats,
    local_spgemm,
    spgemm_dense_accumulator,
    spgemm_hash,
    spgemm_heap,
    spgemm_hybrid,
)
from .merge import add_matrices, kway_merge_columns, stack_columns
from . import ops

__all__ = [
    "CSCMatrix",
    "as_csc",
    "csc_from_scipy",
    "to_scipy",
    "per_column_flops",
    "spgemm_flops",
    "estimate_output_nnz_upper_bound",
    "SpGEMMKernelStats",
    "local_spgemm",
    "spgemm_heap",
    "spgemm_hash",
    "spgemm_dense_accumulator",
    "spgemm_hybrid",
    "KERNELS",
    "KERNEL_VARIANTS",
    "kernel_variant",
    "requested_kernel_variant",
    "resolve_kernel_variant",
    "set_kernel_variant",
    "add_matrices",
    "kway_merge_columns",
    "stack_columns",
    "ops",
]

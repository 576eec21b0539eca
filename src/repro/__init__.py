"""repro — reproduction of "A Sparsity-Aware Distributed-Memory Algorithm for
Sparse-Sparse Matrix Multiplication" (Hong & Buluç, SC 2024).

The package is organised bottom-up:

``repro.sparse``        local CSC container and SpGEMM kernels
``repro.runtime``       simulated distributed-memory runtime (ranks, RDMA
                        windows, collectives, α–β–γ cost model)
``repro.distribution``  1D / 2D / 3D distributed matrix layouts
``repro.partition``     random permutation, METIS-like multilevel partitioner
``repro.core``          the paper's algorithms: sparsity-aware 1D SpGEMM,
                        block fetch, outer-product 1D, and the 2D/3D baselines
``repro.apps``          squaring, AMG Galerkin product, betweenness centrality
``repro.matrices``      synthetic analogues of the paper's datasets
``repro.experiments``   parallel experiment engine: declarative grids,
                        cached deterministic sweeps persisted as JSONL
``repro.analysis``      breakdowns, sweeps and text reports

Quickstart::

    from repro import make_algorithm, SimulatedCluster, load_dataset

    A = load_dataset("hv15r", scale=0.2)
    cluster = SimulatedCluster(nprocs=16)
    result = make_algorithm("1d").multiply(A, A, cluster)
    print(result.elapsed_time, result.communication_volume)
"""

from .core import (
    SpGEMMResult,
    SparsityAware1D,
    SparseSUMMA2D,
    SplitSpGEMM3D,
    OuterProduct1D,
    make_algorithm,
    available_algorithms,
    estimate_communication,
    should_partition,
)
from .experiments import ExperimentGrid, RunConfig, RunRecord, run_grid
from .matrices import load_dataset, dataset_names
from .runtime import CostModel, LAPTOP, PERLMUTTER, SimulatedCluster
from .sparse import CSCMatrix, as_csc, local_spgemm

__version__ = "1.0.0"

__all__ = [
    "SpGEMMResult",
    "SparsityAware1D",
    "SparseSUMMA2D",
    "SplitSpGEMM3D",
    "OuterProduct1D",
    "make_algorithm",
    "available_algorithms",
    "estimate_communication",
    "should_partition",
    "ExperimentGrid",
    "RunConfig",
    "RunRecord",
    "run_grid",
    "load_dataset",
    "dataset_names",
    "CostModel",
    "LAPTOP",
    "PERLMUTTER",
    "SimulatedCluster",
    "CSCMatrix",
    "as_csc",
    "local_spgemm",
    "__version__",
]

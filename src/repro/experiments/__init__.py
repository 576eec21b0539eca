"""Parallel experiment engine: declarative grids, cached deterministic sweeps.

The paper's figures are sweeps over (workload × dataset × algorithm ×
strategy × process count × block split × seed).  This package turns each
sweep point into a hashable :class:`RunConfig`, executes grids
fan-out-parallel with :func:`run_grid`, and persists deterministic
:class:`RunRecord` rows as JSONL keyed by config hash — so re-running a
figure is a cache lookup and an interrupted sweep resumes where it
stopped.  Six workloads cover the paper's evaluation surface and the
SpGEMM consumers grown on it: ``squaring`` (Figs 4–9), ``chained-squaring``
(iterated squaring ``A^(2^k)`` on the resident pipeline),
``amg-restriction`` (Table III, Figs 10–12), ``bc`` (Figs 13–14),
``triangles`` (masked-SpGEMM triangle counting) and ``mcl`` (full Markov
clustering); see :mod:`repro.experiments.workloads`.
"""

from .config import COST_MODELS, ExperimentGrid, RunConfig, resolve_cost_model
from .engine import SweepResult, SweepStats, execute_config, run_grid
from .faults import FaultInjected, FaultPlan, FaultSpec, install_fault_plan
from .journal import Journal, JournalCorrupt, JournalJob
from .scheduler import Job, JobCounters, JobHandle, JobRejected, Scheduler
from .service import ExperimentService, ServiceClient
from .records import (
    AMGStats,
    BCIterationStats,
    BCStats,
    ChainLevelStats,
    ChainStats,
    MCLIterationStats,
    MCLStats,
    MeasuredPhaseStats,
    MeasuredStats,
    RunRecord,
    TriangleStats,
)
from .store import ResultStore
from .workloads import WORKLOADS, execute_workload, workload_names

__all__ = [
    "COST_MODELS",
    "ExperimentGrid",
    "RunConfig",
    "resolve_cost_model",
    "AMGStats",
    "BCIterationStats",
    "BCStats",
    "ChainLevelStats",
    "ChainStats",
    "MCLIterationStats",
    "MCLStats",
    "MeasuredPhaseStats",
    "MeasuredStats",
    "TriangleStats",
    "RunRecord",
    "ResultStore",
    "SweepResult",
    "SweepStats",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "install_fault_plan",
    "Journal",
    "JournalCorrupt",
    "JournalJob",
    "Job",
    "JobCounters",
    "JobHandle",
    "JobRejected",
    "Scheduler",
    "ExperimentService",
    "ServiceClient",
    "WORKLOADS",
    "execute_config",
    "execute_workload",
    "run_grid",
    "workload_names",
]

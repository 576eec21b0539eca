"""Which public entry points are traced, and the per-layer metrics they feed.

A layer is a package under ``src/repro/``.  Only names exported in a
package's ``__all__`` are wrapped (for methods: the class is exported).
Several entry points of one layer may share a span name; their self times
then add up under that name, so nothing is counted twice when one calls
another.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from spantrace import Target, Tracer

#: span name -> [(module path, attribute or Class.method), ...]
ENTRY_POINTS: Dict[str, List[tuple]] = {
    "matrices.load_dataset": [("repro.matrices", "load_dataset")],
    "partition.ordering": [
        ("repro.partition", name) for name in (
            "random_symmetric_permutation", "apply_symmetric_permutation",
            "partition_matrix", "ordering_from_partition", "apply_ordering",
            "identity_ordering", "rcm_ordering",
        )
    ],
    "distribution.from_global": [
        ("repro.distribution", f"{cls}.from_global") for cls in (
            "DistributedColumns1D", "DistributedRows1D",
            "DistributedBlocks2D", "LayerSplit3D",
        )
    ],
    "core.prepare": [
        ("repro.core", f"{cls}.prepare") for cls in (
            "SparsityAware1D", "SparseSUMMA2D", "SplitSpGEMM3D",
            "OuterProduct1D", "NaiveBlockRow1D", "ImprovedBlockRow1D",
        )
    ],
    "core.execute": [
        ("repro.core", f"{cls}.execute") for cls in (
            "SparsityAware1D", "SparseSUMMA2D", "SplitSpGEMM3D",
            "OuterProduct1D", "NaiveBlockRow1D", "ImprovedBlockRow1D",
        )
    ],
    "core.plan_fetch": [
        ("repro.core", "BlockFetchPlanner.plan"),
        ("repro.core", "BlockFetchPlanner.plan_compact"),
        ("repro.core", "plan_block_fetch_all"),
    ],
    "core.estimate": [("repro.core", "estimate_communication")],
    "core.elementwise": [
        ("repro.core", name) for name in (
            "ewise_mult", "prune", "scale_columns", "inflate", "column_sums",
        )
    ],
    "core.mask": [("repro.core", "apply_mask")],
    "sparse.local_spgemm": [("repro.sparse", "local_spgemm")],
    "sparse.merge": [
        ("repro.sparse", name) for name in (
            "add_matrices", "stack_columns", "kway_merge_columns",
        )
    ],
    "sparse.container": [
        ("repro.sparse", f"CSCMatrix.{name}") for name in (
            "from_coo", "extract_columns", "extract_column_range",
        )
    ],
    "runtime.window_get": [
        ("repro.runtime", f"RdmaWindow.{name}") for name in (
            "get", "get_concat", "get_concat_many",
        )
    ],
    "runtime.collectives": [
        ("repro.runtime", f"Communicator.{name}") for name in (
            "send", "send_many", "bcast", "bcast_many", "allgather", "gather",
            "alltoallv", "alltoallv_sizes", "allreduce_scalar", "barrier",
        )
    ],
    "runtime.ledger_charge": [
        ("repro.runtime", "PhaseLedger.charge_bulk"),
        ("repro.runtime", "RankStats.charge_bulk"),
        ("repro.runtime", "RankStats.charge_time"),
    ],
    "apps.run": [
        ("repro.apps", "run_squaring"),
        # exported by its module's __all__, though not re-exported by repro.apps
        ("repro.apps.squaring", "run_chained_squaring"),
        ("repro.apps", "prepare_ordering"),
        ("repro.apps", "run_mcl"),
        ("repro.apps", "run_triangles"),
        ("repro.apps.bc", "batched_betweenness_centrality"),
        ("repro.apps.amg", "build_restriction"),
        ("repro.apps.amg", "left_multiplication"),
        ("repro.apps.amg", "right_multiplication"),
        ("repro.apps.amg", "galerkin_product"),
    ],
    "experiments.execute_config": [("repro.experiments", "execute_config")],
    "experiments.execute_workload": [("repro.experiments", "execute_workload")],
    "experiments.store_append": [("repro.experiments", "ResultStore.append")],
    "experiments.store_load": [("repro.experiments", "ResultStore.load")],
    "experiments.journal_append": [("repro.experiments", "Journal.append")],
}


def resolve_targets() -> List[Target]:
    """Import the packages and turn ``ENTRY_POINTS`` into tracer targets.

    A method is wrapped on the class whose ``__dict__`` defines it, so a
    driver that inherits ``prepare`` from its base is covered once, at the
    base, instead of once per subclass.
    """
    targets: List[Target] = []
    seen = set()
    for span_name, entries in ENTRY_POINTS.items():
        for module_path, attr in entries:
            module = importlib.import_module(module_path)
            head, _, method = attr.partition(".")
            exported = getattr(module, "__all__", None)
            if exported is not None and head not in exported:
                raise LookupError(f"{module_path}.{head} is not exported")
            if not method:
                owner, name = module, head
            else:
                cls = getattr(module, head)
                owner = next(k for k in cls.__mro__ if method in k.__dict__)
                name = method
            if (id(owner), name) not in seen:
                seen.add((id(owner), name))
                targets.append((span_name, owner, name))
    return targets


class FlopCounter:
    """Counts ``local_spgemm`` flops at the call boundary.

    The kernel only counts flops into a caller-supplied
    ``SpGEMMKernelStats``; callers that pass none get one from here, and
    the delta each call adds is summed.
    """

    def __init__(self) -> None:
        self.flops = 0

    def attach(self, tracer: Tracer) -> None:
        from repro.sparse import SpGEMMKernelStats

        def before(_args, kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = SpGEMMKernelStats()
            return stats, stats.flops

        def after(token, _args, _kwargs):
            stats, flops_before = token
            self.flops += stats.flops - flops_before

        tracer.before_call["sparse.local_spgemm"] = before
        tracer.after_call["sparse.local_spgemm"] = after


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]], *, traced_wall: float,
                  flops: int) -> Dict[str, float]:
    """The span-derived per-layer metrics (seconds are self time unless cum)."""

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def cum_s(name: str) -> float:
        return summary.get(name, {}).get("cum_s", 0.0)

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    spgemm_cum = cum_s("sparse.local_spgemm")
    return {
        "matrices.load_dataset_s": self_s("matrices.load_dataset"),
        "matrices.load_dataset_calls": calls("matrices.load_dataset"),
        "partition.ordering_s": self_s("partition.ordering"),
        "partition.ordering_calls": calls("partition.ordering"),
        "distribution.from_global_s": self_s("distribution.from_global"),
        "distribution.from_global_calls": calls("distribution.from_global"),
        "core.prepare_s": self_s("core.prepare"),
        "core.execute_self_s": self_s("core.execute"),
        "core.plan_fetch_s": self_s("core.plan_fetch"),
        "core.plan_fetch_calls": calls("core.plan_fetch"),
        "core.estimate_s": self_s("core.estimate"),
        "core.elementwise_s": self_s("core.elementwise"),
        "core.mask_s": self_s("core.mask"),
        "sparse.local_spgemm_s": spgemm_cum,
        "sparse.local_spgemm_calls": calls("sparse.local_spgemm"),
        "sparse.flops": flops,
        "sparse.flops_per_s": _ratio(flops, spgemm_cum),
        "sparse.merge_s": self_s("sparse.merge"),
        "sparse.container_s": self_s("sparse.container"),
        "runtime.window_get_s": self_s("runtime.window_get"),
        "runtime.window_get_calls": calls("runtime.window_get"),
        "runtime.collectives_s": self_s("runtime.collectives"),
        "runtime.ledger_charge_s": self_s("runtime.ledger_charge"),
        "runtime.ledger_charge_calls": calls("runtime.ledger_charge"),
        "apps.self_s": self_s("apps.run"),
        "experiments.record_build_s": self_s("experiments.execute_workload"),
        "experiments.store_append_s": self_s("experiments.store_append"),
        "experiments.store_append_calls": calls("experiments.store_append"),
        "experiments.store_load_s": self_s("experiments.store_load"),
        "experiments.store_load_calls": calls("experiments.store_load"),
        "experiments.journal_append_s": self_s("experiments.journal_append"),
        "experiments.journal_append_calls": calls("experiments.journal_append"),
        "experiments.scheduler_self_s": (
            traced_wall - cum_s("experiments.execute_config")
        ),
        "trace.coverage": _ratio(
            sum(row["self_s"] for row in summary.values()), traced_wall
        ),
    }

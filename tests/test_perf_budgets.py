"""Work-counter budgets: timing-free perf gates on hot-path operation counts.

Wall-clock bounds are too noisy to gate a shared host inside tier-1;
operation counts repeat exactly.  Each test pins the asymptotic contract of
one hot path on small sizes, so a change that reintroduces per-task or
O(store) work fails here even where the benchmark's noise would hide it.
(The store's parse budget lives beside the store index, in
``tests/test_store_index.py``.)
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from repro.core import SparseSUMMA2D, SplitSpGEMM3D
from repro.experiments import RunConfig, Scheduler
from repro.experiments.faults import install_fault_plan, reset_fault_plan
from repro.matrices.generators import community_graph
from repro.runtime import SimulatedCluster

N = 4


def _configs() -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in (2, 4, 8, 16)[:N]
    ]


@pytest.fixture
def fsyncs(monkeypatch):
    """``os.fsync`` calls made in this (the scheduler's) process.

    No fault plan may be armed: a shared fault-state file fsyncs too.
    """
    install_fault_plan(None)
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    yield calls
    reset_fault_plan()


class TestFsyncBudget:
    """A journalled job costs 2 journal fsyncs (``job-submitted`` and
    ``job-done``) plus one store fsync per fresh row."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_fresh_cached_and_forced_jobs(self, tmp_path, fsyncs, workers):
        with Scheduler(workers=workers, store=tmp_path / "records.jsonl",
                       journal=tmp_path / "journal") as scheduler:
            fresh = scheduler.submit(_configs())
            fresh.wait(timeout=120)
            assert fresh.counters.executed == N
            assert len(fsyncs) == 2 + N

            del fsyncs[:]
            cached = scheduler.submit(_configs())
            cached.wait(timeout=120)
            assert cached.counters.cached == N
            assert len(fsyncs) == 2

            del fsyncs[:]
            forced = scheduler.submit(_configs(), force=True)
            forced.wait(timeout=120)
            assert forced.counters.executed == N
            assert len(fsyncs) == 2 + N


@pytest.fixture
def core_calls(monkeypatch):
    """Calls ``repro.core`` modules make to ``add_matrices`` and
    ``build_csc_unchecked`` themselves (not those made inside ``repro.sparse``)."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name == "repro.core" or module_name.startswith("repro.core."):
            for name in ("add_matrices", "build_csc_unchecked"):
                real = getattr(module, name, None)
                if real is not None:
                    monkeypatch.setattr(module, name, counting(name, real))
    return counts


class TestSummaMergeBudget:
    """On a q × q block grid the SUMMA drivers merge once per block row and
    hand out one view per block: O(q) merges and O(P) views, not one merge
    per block and one slice per (block, stage)."""

    P = 64

    @pytest.fixture(scope="class")
    def A(self):
        return community_graph(240, 8, 12, mixing=0.1, shuffle=True, seed=7)

    def test_2d_merges_each_block_row_once(self, A, core_calls):
        SparseSUMMA2D().multiply(A, A, SimulatedCluster(self.P))
        assert 0 < core_calls["add_matrices"] <= 8  # 8 × 8 grid
        assert 0 < core_calls["build_csc_unchecked"] <= self.P

    def test_3d_four_layers_merge_rows_then_fibers(self, A, core_calls):
        SplitSpGEMM3D(layers=4).multiply(A, A, SimulatedCluster(self.P))
        # 4 × 4 grid per layer: ≤ 4 block-row merges per layer, then one
        # merge of the received chunks per process.
        assert 0 < core_calls["add_matrices"] <= 4 * 4 + self.P
        assert 0 < core_calls["build_csc_unchecked"] <= self.P

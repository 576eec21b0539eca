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

import pytest

from repro.experiments import RunConfig, Scheduler
from repro.experiments.faults import install_fault_plan, reset_fault_plan

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

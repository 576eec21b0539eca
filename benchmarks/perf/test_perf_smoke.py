"""Tier-1 smoke test of the benchmark itself (tiny ``--smoke`` sizes).

Runs every workload once on all three lanes plus the traced lane and pins
the contract between ``BENCHMARK.json`` and what the code emits.  Nothing
here asserts a timing.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import run
import workloads
from spantrace import Tracer

SPEC = run.load_spec()
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(run.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(run.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _smoke(workload: str):
    repeat = run.run_repeat(workload, run.GOLDEN_SEED, smoke=True)
    traced = run.run_lane("traced", workload, run.GOLDEN_SEED, smoke=True)
    failures = repeat["failures"] + traced["failures"] + run.cross_lane_failures(
        workload, run.GOLDEN_SEED, True, repeat["serial"], traced, "traced")
    return repeat, traced, failures


@pytest.fixture(scope="module")
def smoke_runs():
    before = _src_digest()
    # Two at a time: the host has two cores and no timing is asserted.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(workloads.NAMES, pool.map(_smoke, workloads.NAMES)))
    assert _src_digest() == before, "the benchmark modified src/"
    return results


def test_spec_stays_inside_the_contract_limits():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in SPEC["workloads"]:
        assert workload["why"] == workloads.WHY[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_is_correct_and_emits_the_declared_metrics(smoke_runs, workload):
    repeat, traced, failures = smoke_runs[workload]
    assert failures == []
    assert repeat["attempted"] >= 1

    end_to_end = run.end_to_end([repeat])
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in end_to_end.values())

    per_layer = run.per_layer(repeat, traced)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert per_layer["sparse.local_spgemm_calls"] > 0
    assert per_layer["experiments.store_append_calls"] > 0
    assert per_layer["trace.overhead_ratio"] > 0


def test_same_seed_same_inputs_and_seed_changes_them():
    for name in workloads.NAMES:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3) != workloads.build(name, 4)


def test_tracer_restores_every_rebound_callable():
    tracer = Tracer()
    layers.FlopCounter().attach(tracer)
    tracer.install(layers.resolve_targets())
    try:
        rebound = tracer.installed()
        assert len(rebound) >= len(layers.ENTRY_POINTS)
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in rebound)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in rebound)
    assert tracer.installed() == []


def test_command_line_prints_one_json_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(run.PERF_DIR / "run.py"), "--workload", "sweep_pool",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    # Without the program beside it the benchmark must fail, not report.
    bare = tmp_path / "bare"
    shutil.copytree(run.PERF_DIR, bare / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    lonely = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "sweep_pool",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert lonely.returncode != 0
    assert lonely.stdout.strip() == ""

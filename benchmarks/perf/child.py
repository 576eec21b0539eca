"""One measured lane of one workload, run inside its own fresh process.

``run.py`` starts this file once per lane and repeat, with the working
directory set to a fresh scratch directory that holds everything the lane
writes (store, journal, socket, dataset disk cache).  The lane sets up,
runs its timed region, checks what it can check locally, and writes one
JSON document to ``result.json``; the parent compares lanes and reduces
repeats.

Lanes
-----
``serial``
    the workload's fresh jobs, one ``run_grid(workers=0)`` each.
``engine``
    the whole request list, closed loop, through the workload's live
    2-worker engine, then the fresh jobs forced through it again.
``traced``
    the request list through an in-process ``workers=0`` engine twice —
    plain, then with the span tracer installed — so per-layer times and
    the tracing overhead come from the same code path in one process.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy
import scipy

import workloads as wl
from repro.experiments import (
    ExperimentService,
    ResultStore,
    RunConfig,
    Scheduler,
    ServiceClient,
    run_grid,
)
from repro.matrices import dataset_cache_stats, load_dataset
from repro.sparse import resolve_kernel_variant

#: workers of the engine lane (the host this was sized on has two cores)
ENGINE_WORKERS = 2
#: per-request ceiling; a job that takes longer counts as failed
REQUEST_TIMEOUT_S = 120.0

_HASH_RE = re.compile(rb'"config_hash":"([0-9a-f]{16})"')

clock = time.perf_counter


def projection(record: Dict[str, object]) -> List[object]:
    """The modelled fields the golden digest pins (a projection, not the
    raw row, so a record field added later does not break the golden)."""
    return [
        record["config_hash"],
        int(record["communication_volume"]),
        int(record["message_count"]),
        int(record["rdma_gets"]),
        int(record["output_nnz"]),
        float(record["elapsed_time"]).hex(),
        bool(record["conserved"]),
    ]


class StoreTail:
    """Which config hashes the store file holds, read incrementally."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offset = 0
        self.seen = set()

    def holds(self, hashes: Sequence[str]) -> bool:
        if self.path.is_file():
            with self.path.open("rb") as fh:
                fh.seek(self.offset)
                fresh = fh.read()
            # Only whole lines count: a torn row is not a persisted record.
            end = fresh.rfind(b"\n") + 1
            self.offset += end
            self.seen.update(m.decode() for m in _HASH_RE.findall(fresh[:end]))
        return all(h in self.seen for h in hashes)


# ----------------------------------------------------------------------
# Engines: something that takes a job and returns its record dicts
# ----------------------------------------------------------------------
class SchedulerEngine:
    def __init__(self, store: Path, workers: int) -> None:
        self.scheduler = Scheduler(workers=workers, store=store)

    def request(self, configs: Sequence[RunConfig], force: bool = False):
        handle = self.scheduler.submit(list(configs), force=force)
        return [r.to_dict() for r in handle.wait(timeout=REQUEST_TIMEOUT_S)]

    def counters(self) -> Dict[str, object]:
        return self.scheduler.residency_stats()

    def close(self) -> int:
        self.scheduler.shutdown()
        return 0


class ServiceEngine:
    """One ``ServiceClient`` connection to a journalled service.

    ``workers=2`` hosts the service the way users do — a ``python -m repro
    serve`` subprocess; ``workers=0`` hosts it on a thread of this process
    (as ``tests/test_service.py`` does) so a tracer can see its spans.
    """

    SOCKET = "serve.sock"

    def __init__(self, store: Path, workers: int) -> None:
        self.process: Optional[subprocess.Popen] = None
        self.thread: Optional[threading.Thread] = None
        journal = store.parent / "journal"
        if workers == 0:
            service = ExperimentService(workers=workers, store=store,
                                        journal=journal)
            ready = threading.Event()
            self.thread = threading.Thread(
                target=lambda: asyncio.run(service.run(
                    socket_path=store.parent / self.SOCKET,
                    ready=lambda _address: ready.set(),
                )),
                daemon=True,
            )
            self.thread.start()
            if not ready.wait(timeout=30):
                raise RuntimeError("in-process service did not come up")
        else:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.SOCKET, "--workers", str(workers),
                 "--records", store.name, "--journal", journal.name],
                cwd=store.parent, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )
            banner = self.process.stdout.readline()
            if "listening on" not in banner:
                self.process.kill()
                self.process.wait()
                raise RuntimeError(f"repro serve did not come up: {banner!r}")
        self.client = ServiceClient(socket_path=store.parent / self.SOCKET,
                                    timeout=REQUEST_TIMEOUT_S)

    def request(self, configs: Sequence[RunConfig] = (), force: bool = False,
                grid: Optional[Dict[str, object]] = None):
        reply = self.client.submit_and_wait(
            configs=[c.as_dict() for c in configs] or None, grid=grid,
            force=force,
        )
        if not reply.get("ok") or reply.get("state") != "done":
            raise RuntimeError(f"job not done: {reply.get('error') or reply}")
        return reply["records"]

    def counters(self) -> Dict[str, object]:
        return self.client.stats()["residency"]

    def close(self) -> int:
        try:
            self.client.shutdown()
        finally:
            self.client.close()
        if self.thread is not None:
            self.thread.join(timeout=60)
            return 1 if self.thread.is_alive() else 0
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9
        finally:
            self.process.stdout.close()


def make_engine(workload: wl.Workload, store: Path, workers: int):
    engine = ServiceEngine if workload.engine == "service" else SchedulerEngine
    return engine(store, workers)


# ----------------------------------------------------------------------
# The passes
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _check_records(records, configs, tally: Tally, where: str) -> None:
    expected = {c.config_hash() for c in configs}
    got = {r["config_hash"] for r in records}
    for missing in sorted(expected - got):
        tally.fail(f"{where}: no record for config {missing}")
    for record in records:
        if not record["conserved"]:
            tally.fail(f"{where}: {record['config_hash']} not conserved")


def run_requests(engine, workload: wl.Workload, store: Path,
                 tally: Tally) -> Dict[str, object]:
    """The closed loop: one request at a time, each clocked from submit to
    reply received and every returned hash present in the store file."""
    tail = StoreTail(store)
    fresh_replies: Dict[int, list] = {}
    latencies = {"fresh": [], "cached": []}
    for request in workload.requests:
        kind = "cached" if request.cached else "fresh"
        tally.attempted += 1 + len(request.configs)
        start = clock()
        try:
            records = engine.request(request.configs)
        except Exception as error:  # a failed job is a counted outcome
            tally.fail(f"{kind} job {request.job}: {error!r}")
            continue
        persisted = tail.holds([r["config_hash"] for r in records])
        latencies[kind].append(clock() - start)
        if not persisted:
            tally.fail(f"{kind} job {request.job}: reply not in the store file")
        _check_records(records, request.configs, tally, f"{kind} job {request.job}")
        if not request.cached:
            fresh_replies[request.job] = records
        elif records != fresh_replies.get(request.job):
            tally.fail(f"cached job {request.job}: reply differs from the fresh reply")
    return latencies


def run_forced(engine, workload: wl.Workload, tally: Tally) -> None:
    for job, configs in enumerate(workload.fresh_jobs):
        tally.attempted += 1 + len(configs)
        try:
            records = engine.request(configs, force=True)
        except Exception as error:
            tally.fail(f"forced job {job}: {error!r}")
            continue
        _check_records(records, configs, tally, f"forced job {job}")


def store_lines(store: Path) -> List[bytes]:
    return store.read_bytes().splitlines(keepends=True) if store.is_file() else []


def store_state(lines: List[bytes], skip_rows: int = 0) -> Dict[str, object]:
    """Digest of the raw rows after the first ``skip_rows`` (the set-up
    population), the sorted projection of every row, and exact totals."""
    records = [json.loads(line) for line in lines]
    kept = records[skip_rows:]
    return {
        "digest": hashlib.sha256(b"".join(lines[skip_rows:])).hexdigest(),
        "rows": sorted({tuple(projection(r)) for r in records}),
        "nrows": len(kept),
        "bytes": sum(len(line) for line in lines),
        "messages": sum(int(r["message_count"]) for r in kept),
        "volume": sum(int(r["communication_volume"]) for r in kept),
    }


def set_up(workload: wl.Workload) -> None:
    """Generate every dataset into the fresh disk cache and finish the
    deferred imports with one tiny config."""
    for dataset, scale in workload.datasets:
        load_dataset(dataset, scale=scale)
    run_grid([RunConfig(dataset="hv15r", nprocs=4, scale=0.1, **wl.BASE)], workers=0)


def populate(engine, workload: wl.Workload, tally: Tally) -> int:
    if not workload.populate:
        return 0
    records = engine.request(grid=workload.populate)
    expected = len(workload.populate["datasets"]) * len(workload.populate["seeds"])
    if len(records) != expected:
        tally.fail(f"population returned {len(records)} of {expected} rows")
    return len(records)


def lane_serial(workload: wl.Workload, workdir: Path, spawned_at: float):
    tally = Tally()
    set_up(workload)
    store = workdir / "records.jsonl"
    setup_s = time.monotonic() - spawned_at
    start = clock()
    for job, configs in enumerate(workload.fresh_jobs):
        tally.attempted += 1 + len(configs)
        result = run_grid(list(configs), workers=0, store=ResultStore(store))
        _check_records([r.to_dict() for r in result.records], configs, tally,
                       f"serial job {job}")
    wall = clock() - start
    state = store_state(store_lines(store))
    return {"setup_s": setup_s, "wall_s": wall, "store": state}, tally


def lane_engine(workload: wl.Workload, workdir: Path, spawned_at: float):
    tally = Tally()
    set_up(workload)
    store = workdir / "records.jsonl"
    engine = None
    populated = 0
    if workload.engine == "service":
        # A service is long-lived: starting it and filling its store are
        # set-up.  A scheduler is built per sweep: that is timed.
        engine = make_engine(workload, store, ENGINE_WORKERS)
        populated = populate(engine, workload, tally)
    setup_s = time.monotonic() - spawned_at
    exit_code = None
    try:
        start = clock()
        if engine is None:
            engine = make_engine(workload, store, ENGINE_WORKERS)
        latencies = run_requests(engine, workload, store, tally)
        wall = clock() - start
        cold = store_lines(store)
        start = clock()
        run_forced(engine, workload, tally)
        resident_wall = clock() - start
        counters = engine.counters()
    finally:
        if engine is not None:
            exit_code = engine.close()
    if exit_code != 0:
        tally.fail(f"engine exited with {exit_code}")
    # Host-side residency never changes a record: the forced pass must
    # append exactly the bytes the cold pass wrote.
    if store_lines(store)[populated:] != 2 * cold[populated:]:
        tally.fail("forced pass did not append the cold pass's bytes again")
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "resident_wall_s": resident_wall,
        "latencies": latencies,
        "peak_rss_mb": sum(usage) / 1024.0,
        "store": store_state(cold, skip_rows=populated),
        "records": sum(len(j) for j in workload.fresh_jobs),
        "counters": counters,
    }, tally


def _in_process_pass(workload: wl.Workload, workdir: Path, tally: Tally):
    workdir.mkdir()
    store = workdir / "records.jsonl"
    engine = make_engine(workload, store, workers=0)
    try:
        populated = populate(engine, workload, tally)
        start = clock()
        latencies = run_requests(engine, workload, store, tally)
        end = clock()
    finally:
        engine.close()
    return (start, end), latencies, store_state(store_lines(store), skip_rows=populated)


def lane_traced(workload: wl.Workload, workdir: Path, spawned_at: float,
                trace_path: Optional[Path] = None):
    import layers
    from spantrace import Tracer

    tally = Tally()
    set_up(workload)
    setup_s = time.monotonic() - spawned_at
    (start, end), _latencies, plain = _in_process_pass(
        workload, workdir / "plain", tally)
    plain_wall = end - start

    tracer = Tracer()
    flops = layers.FlopCounter()
    flops.attach(tracer)
    tracer.install(layers.resolve_targets())
    rebound = tracer.installed()
    try:
        window, latencies, traced = _in_process_pass(
            workload, workdir / "traced", tally)
    finally:
        tracer.uninstall()
    traced_wall = window[1] - window[0]
    for owner, attr, original in rebound:
        if vars(owner)[attr] is not original:
            tally.fail(f"tracer left {owner.__name__}.{attr} rebound")
    if traced["digest"] != plain["digest"]:
        tally.fail("tracing changed the bytes of the store")

    summary = tracer.summary(window)
    metrics = layers.layer_metrics(summary, traced_wall=traced_wall,
                                   flops=flops.flops)
    disk = dataset_cache_stats()
    metrics.update({
        "runtime.messages": traced["messages"],
        "runtime.bytes": traced["volume"],
        "runtime.messages_per_s": traced["messages"] / plain_wall,
        "matrices.disk_hit_ratio": (
            disk["disk_hits"] / max(1, disk["disk_hits"] + disk["disk_misses"])
        ),
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    if trace_path is not None:
        tracer.dump(trace_path, window=window, meta={
            "workload": workload.name, "traced_wall_s": traced_wall,
            "plain_wall_s": plain_wall,
        })
    return {
        "setup_s": setup_s,
        "wall_s": traced_wall,
        "plain_wall_s": plain_wall,
        "latencies": latencies,
        "store": traced,
        "metrics": metrics,
        "spans": tracer.span_count(),
    }, tally


LANES: Dict[str, Callable] = {
    "serial": lane_serial,
    "engine": lane_engine,
    "traced": lane_traced,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lane", choices=sorted(LANES), required=True)
    parser.add_argument("--workload", choices=wl.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workdir = Path.cwd()
    workload = wl.build(args.workload, args.seed, smoke=args.smoke)
    extra = {}
    if args.lane == "traced" and args.trace_out:
        extra["trace_path"] = Path(args.trace_out)
    result, tally = LANES[args.lane](workload, workdir, args.spawned_at, **extra)
    result.update(attempted=tally.attempted, failures=tally.failures, host={
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_variant": resolve_kernel_variant(),
    })
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo's performance benchmark: one workload per invocation.

    python3 benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1

builds the workload's inputs from the seed, measures it, checks the
outputs, prints every metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics (tracing off), ``--trace 1`` the per-layer
metrics (``BENCHMARK.json`` lists both, with units and bounds).

Every number is **host** time: what the simulator costs to run.  Modelled
counters appear only as exact counts and as the correctness check.  The
model itself is validated only against the repo's executable claims — no
reference-hardware results exist, so no simulator-error figure is given.

One run is at least three repeats, as many as fit in ``--seconds``; each
repeat is a serial-lane child and an engine-lane child (``child.py``),
every child a fresh process in a fresh scratch directory.  Each metric is
the median over the repeats (the p50s: over the repeats' pooled samples).

Other modes: ``--check-repeat`` (two full sets, compared against the
bounds), ``--regen-golden`` (rewrite ``golden.json``; never times),
``--smoke`` (tiny sizes, one repeat; for the smoke test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
SRC = ROOT / "src"
WORK = PERF_DIR / ".work"
GOLDEN = PERF_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

#: the golden pins seed 0 only; other seeds are checked by conservation
#: and cross-lane identity
GOLDEN_SEED = 0
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
_SHM = Path("/dev/shm")
#: the dataset transport names its segments ``repro_ds_<owner pid>_<seq>``
_SEGMENT_PREFIX = "repro_ds_"


class LaneFailed(RuntimeError):
    """A child crashed or hung: the run has no result."""


def load_spec() -> Dict[str, object]:
    return json.loads(SPEC.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Running one lane in a fresh process and scratch directory
# ----------------------------------------------------------------------
def _child_env(workdir: Path) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob, with ``HOME``
    and the dataset disk cache pointed into the scratch directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["HOME"] = str(workdir)
    env["REPRO_DATASET_CACHE_DIR"] = str(workdir / "datasets")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _shm_segments() -> set:
    if not _SHM.is_dir():
        return set()
    return {n for n in os.listdir(_SHM) if n.startswith(_SEGMENT_PREFIX)}


def _owner_is_dead(segment: str) -> bool:
    pid = segment[len(_SEGMENT_PREFIX):].split("_", 1)[0]
    return not (pid.isdigit() and Path("/proc", pid).exists())


def _live_group_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid`` that are still running (a zombie
    waiting for init to reap it has already stopped)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue            # exited while we were looking
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


def _group_survives(pgid: int, grace_s: float = 2.0) -> bool:
    """Is anything left running in the child's process group?  The child
    led its own session, so whatever it started and did not stop is still
    there.  multiprocessing's resource tracker only exits once it sees its
    owner's pipe close, a moment after the owner: give it ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while _live_group_members(pgid):
        if time.monotonic() > deadline:
            return True
        time.sleep(0.01)
    return False


def run_lane(lane: str, workload: str, seed: int, *, smoke: bool,
             trace_out: Optional[Path] = None) -> Dict[str, object]:
    """Run one lane; return its result with the hygiene findings added."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{lane}-", dir=WORK))
    shm_before = _shm_segments()
    command = [sys.executable, str(PERF_DIR / "child.py"), "--lane", lane,
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(
        command, cwd=workdir, env=_child_env(workdir), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        output, _ = process.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        raise LaneFailed(f"{workload}/{lane} hung for {CHILD_TIMEOUT_S}s:\n{output}")

    hygiene: List[str] = []
    if _group_survives(process.pid):
        os.killpg(process.pid, signal.SIGKILL)
        hygiene.append(f"{lane}: a child process survived the lane")
    # New segments whose owner is gone are leaks; a live owner is another
    # run on this host, which will answer for its own.
    for name in sorted(filter(_owner_is_dead, _shm_segments() - shm_before)):
        hygiene.append(f"{lane}: leaked shm segment {name}")
        try:
            (_SHM / name).unlink()
        except OSError:
            pass
    result_file = workdir / "result.json"
    result = (
        json.loads(result_file.read_text(encoding="utf-8"))
        if process.returncode == 0 and result_file.is_file() else None
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.exists():
        hygiene.append(f"{lane}: scratch directory {workdir.name} not removed")
    if result is None:
        raise LaneFailed(
            f"{workload}/{lane} exited with {process.returncode}:\n{output}"
        )
    result["failures"] += hygiene
    return result


# ----------------------------------------------------------------------
# Correctness across lanes, and the golden
# ----------------------------------------------------------------------
def rows_digest(rows: Sequence[Sequence[object]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def golden_digest(workload: str, smoke: bool) -> Optional[str]:
    if not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden["smoke" if smoke else "full"].get(workload)


def cross_lane_failures(workload: str, seed: int, smoke: bool,
                        serial: Dict[str, object],
                        other: Dict[str, object], lane: str) -> List[str]:
    failures = []
    if other["store"]["digest"] != serial["store"]["digest"]:
        failures.append(f"{lane} store is not byte-identical to the serial store")
    if seed == GOLDEN_SEED:
        expected = golden_digest(workload, smoke)
        if expected is None:
            failures.append("no golden for this workload (run --regen-golden)")
        elif rows_digest(other["store"]["rows"]) != expected:
            failures.append(f"{lane} store does not match golden.json")
    return failures


def run_repeat(workload: str, seed: int, smoke: bool) -> Dict[str, object]:
    serial = run_lane("serial", workload, seed, smoke=smoke)
    engine = run_lane("engine", workload, seed, smoke=smoke)
    failures = serial["failures"] + engine["failures"] + cross_lane_failures(
        workload, seed, smoke, serial, engine, "engine")
    return {
        "serial": serial,
        "engine": engine,
        "attempted": serial["attempted"] + engine["attempted"],
        "failures": failures,
    }


# ----------------------------------------------------------------------
# Reducing repeats to metrics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def end_to_end(repeats: List[Dict[str, object]]) -> Dict[str, float]:
    engines = [r["engine"] for r in repeats]
    fresh = [s for e in engines for s in e["latencies"]["fresh"]]
    cached = [s for e in engines for s in e["latencies"]["cached"]]
    median = statistics.median
    return {
        "setup_s": median(e["setup_s"] for e in engines),
        "wall_s": median(e["wall_s"] for e in engines),
        "serial_wall_s": median(r["serial"]["wall_s"] for r in repeats),
        "resident_wall_s": median(e["resident_wall_s"] for e in engines),
        "submit_to_persisted_p50_ms": median(fresh) * 1e3,
        "cached_submit_p50_ms": median(cached) * 1e3,
        "peak_rss_mb": median(e["peak_rss_mb"] for e in engines),
    }


def per_layer(repeat: Dict[str, object], traced: Dict[str, object]) -> Dict[str, float]:
    """The traced pass's span metrics plus the counters only the untraced
    2-worker engine lane can give."""
    engine, serial = repeat["engine"], repeat["serial"]
    counters = engine["counters"]
    lookups = counters["hits"] + counters["misses"]
    faults = counters["faults"]
    metrics = dict(traced["metrics"])
    metrics.update({
        "matrices.shm_bytes": counters["shm_bytes"],
        "core.operand_cache_hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "experiments.store_bytes": engine["store"]["bytes"],
        "experiments.records_per_s": engine["records"] / engine["wall_s"],
        "experiments.pool_speedup": serial["wall_s"] / engine["wall_s"],
        "experiments.resident_speedup": serial["wall_s"] / engine["resident_wall_s"],
        "experiments.steals": counters["stolen"],
        "experiments.retries": faults["retries"],
        "experiments.timeouts": faults["timeouts"],
        "experiments.fresh_job_p90_ms": percentile(engine["latencies"]["fresh"], 0.9) * 1e3,
        "experiments.cached_job_p90_ms": percentile(engine["latencies"]["cached"], 0.9) * 1e3,
    })
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _dev, mount, kind = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def host_block(child_host: Dict[str, object]) -> Dict[str, object]:
    return dict(
        child_host,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        scratch_filesystem=_filesystem_of(WORK),
    )


def report(workload: str, seed: int, values: Dict[str, float],
           declared: List[Dict[str, str]], attempted: int,
           failures: List[str], notes: Dict[str, object]) -> None:
    """Print the readable block, then the one-line JSON result.

    A run whose outputs are wrong still reports (``correct: false``) and
    exits 0: judging the result is the caller's part."""
    print(f"workload {workload}  seed {seed}  (host time; closed loop, 1 client, "
          "2 workers; model validated only against the repo's executable claims)")
    notes = dict(notes, host=host_block(notes["host"]))
    for key, value in sorted(notes.items()):
        print(f"{key} {json.dumps(value)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, object]:
    """Repeat until ``seconds`` are used (at least ``MIN_REPEATS`` times)."""
    min_repeats = 1 if smoke else MIN_REPEATS
    started = time.monotonic()
    repeats: List[Dict[str, object]] = []
    while True:
        repeats.append(run_repeat(workload, seed, smoke))
        elapsed = time.monotonic() - started
        if len(repeats) >= min_repeats and elapsed + elapsed / len(repeats) > seconds:
            return {
                "repeats": repeats,
                "values": end_to_end(repeats),
                "attempted": sum(r["attempted"] for r in repeats),
                "failures": [f for r in repeats for f in r["failures"]],
            }


def mode_run(args, spec) -> int:
    if not args.trace:
        run = measure(args.workload, args.seed, args.seconds, args.smoke)
        engines = [r["engine"] for r in run["repeats"]]
        notes = {"host": engines[-1]["host"], "samples": {
            "repeats": len(run["repeats"]),
            "fresh_jobs": sum(len(e["latencies"]["fresh"]) for e in engines),
            "cached_jobs": sum(len(e["latencies"]["cached"]) for e in engines),
        }}
        report(args.workload, args.seed, run["values"], spec["end_to_end"],
               run["attempted"], run["failures"], notes)
        return 0

    repeat = run_repeat(args.workload, args.seed, args.smoke)
    trace_out = WORK / f"trace-{args.workload}.json"
    traced = run_lane("traced", args.workload, args.seed, smoke=args.smoke,
                      trace_out=trace_out)
    failures = repeat["failures"] + traced["failures"] + cross_lane_failures(
        args.workload, args.seed, args.smoke, repeat["serial"], traced, "traced")
    notes = {"host": traced["host"], "trace": {
        "file": str(trace_out.relative_to(ROOT)),
        "spans": traced["spans"],
        "traced_wall_s": traced["wall_s"],
        "plain_wall_s": traced["plain_wall_s"],
    }}
    report(args.workload, args.seed, per_layer(repeat, traced), spec["per_layer"],
           repeat["attempted"] + traced["attempted"], failures, notes)
    return 0


def mode_regen_golden(spec) -> int:
    golden: Dict[str, Dict[str, str]] = {"full": {}, "smoke": {}}
    for size, smoke in (("full", False), ("smoke", True)):
        for workload in (w["name"] for w in spec["workloads"]):
            serial = run_lane("serial", workload, GOLDEN_SEED, smoke=smoke)
            engine = run_lane("engine", workload, GOLDEN_SEED, smoke=smoke)
            failures = serial["failures"] + engine["failures"]
            if engine["store"]["digest"] != serial["store"]["digest"]:
                failures.append("engine store differs from the serial store")
            if failures:
                print(f"{workload} ({size}): not writing a golden over failures:",
                      *failures, sep="\n  ", file=sys.stderr)
                return 1
            golden[size][workload] = rows_digest(engine["store"]["rows"])
            print(f"{workload} ({size}): {golden[size][workload]}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def mode_check_repeat(args, spec) -> int:
    """Two full sets of the same code; every pair of medians must agree
    within the metric's bound."""
    started = time.monotonic()
    sets = []
    for index in range(2):
        set_started = time.monotonic()
        values = {}
        for workload in (w["name"] for w in spec["workloads"]):
            run = measure(workload, args.seed, args.seconds, smoke=False)
            if run["failures"]:
                print(f"{workload}: failures:", *run["failures"], sep="\n  ")
                return 1
            values[workload] = run["values"]
        sets.append(values)
        print(f"set {index + 1}: {time.monotonic() - set_started:.1f} s wall")
    print(f"{'workload':15s} {'metric':28s} {'set 1':>12s} {'set 2':>12s} "
          f"{'ratio':>7s} {'bound':>6s}")
    worst = 0
    for workload, first in sets[0].items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[name], sets[1][workload][name]
            ratio = b / a
            ok = abs(ratio - 1.0) <= bound
            worst += not ok
            print(f"{workload:15s} {name:28s} {a:12.5g} {b:12.5g} {ratio:7.3f} "
                  f"{bound:6.2f}{'' if ok else '  DISAGREE'}")
    print(f"total: {time.monotonic() - started:.1f} s wall; "
          f"{worst} pair(s) outside their bound")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    try:
        if args.regen_golden:
            if args.workload or args.trace or args.check_repeat:
                parser.error("--regen-golden runs alone: it never reports a timing")
            return mode_regen_golden(spec)
        if args.check_repeat:
            return mode_check_repeat(args, spec)
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        return mode_run(args, spec)
    except LaneFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

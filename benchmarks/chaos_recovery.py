"""Chaos-recovery harness: kill -9 a live ``repro serve`` mid-sweep and
prove the restarted service converges to a byte-identical store.

The script is deterministic despite being a kill test: a fault plan
(``hang-in-kernel:3@3600``) stalls the service after exactly two persisted
records, so the SIGKILL always lands mid-flight with a known store
prefix.  The shared ``REPRO_FAULT_STATE`` counter file ensures the hang
does not re-fire during recovery.

Flow:

1. clean serial ``run_grid`` of the grid → baseline store bytes
2. ``python -m repro serve --journal`` in a subprocess; submit the grid
3. poll ``stats`` until exactly 2 records are persisted (3rd config hung)
4. ``kill -9`` the service; assert the partial store is a baseline prefix
5. restart serve on the same store+journal; the interrupted job is
   re-adopted before the socket binds; ``results(job-1, wait=True)``
6. byte-compare the recovered store against the baseline, check the
   journal converged, the successor executed exactly the configs the
   victim had not persisted (the ``hang-in-kernel`` hit counter in
   ``REPRO_FAULT_STATE`` counts one hit per execution) with no retry, and
   no orphan ``/dev/shm`` segment survived

Run under ``REPRO_SHM_TRANSPORT=1`` and ``=0`` (CI does both legs).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import ResultStore, RunConfig, run_grid  # noqa: E402
from repro.experiments.journal import Journal  # noqa: E402
from repro.experiments.service import ServiceClient  # noqa: E402
from repro.matrices.transport import SEGMENT_PREFIX, _pid_alive  # noqa: E402

#: six configs; the fault plan hangs the third execution forever
_NPROCS = (2, 4, 8, 16, 32, 64)
_FAULT_PLAN = "hang-in-kernel:3@3600"
_HUNG_AFTER = 2  # records persisted before the hang


def _configs() -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in _NPROCS
    ]


def _grid_payload() -> dict:
    return {
        "datasets": ["hv15r"],
        "process_counts": list(_NPROCS),
        "block_splits": [16],
        "scale": 0.05,
    }


def _spawn_serve(sock: Path, store: Path, jdir: Path, env: dict,
                 label: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         "--records", str(store), "--journal", str(jdir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    banner = proc.stdout.readline()
    assert "listening on" in banner, f"{label}: bad banner: {banner!r}"
    print(f"[chaos] {label}: pid={proc.pid} {banner.strip()}")
    return proc


def _poll_persisted(sock: Path, want: int, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServiceClient(socket_path=sock) as client:
            stats = client.stats()
        if stats["scheduler"]["records_persisted"] >= want:
            return stats
        time.sleep(0.1)
    raise AssertionError(
        f"service never persisted {want} records within {timeout}s"
    )


def _kernel_hits(env: dict) -> int:
    """Executions so far: ``hang-in-kernel`` hits in the shared state file."""
    state = json.loads(Path(env["REPRO_FAULT_STATE"]).read_text())
    return int(state.get("hang-in-kernel", 0))


def _orphan_segments() -> list:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    leaked = []
    for entry in shm.glob(SEGMENT_PREFIX + "*"):
        pid_part = entry.name[len(SEGMENT_PREFIX):].split("_", 1)[0]
        if not (pid_part.isdigit() and _pid_alive(int(pid_part))):
            leaked.append(entry.name)
    return leaked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    scratch = tempfile.TemporaryDirectory(prefix="chaos-")
    workdir = Path(args.workdir) if args.workdir else Path(scratch.name)
    workdir.mkdir(parents=True, exist_ok=True)
    shm_transport = os.environ.get("REPRO_SHM_TRANSPORT", "0")
    print(f"[chaos] workdir={workdir} REPRO_SHM_TRANSPORT={shm_transport}")

    # 1. Clean serial baseline (no fault plan in this process).
    baseline_store = ResultStore(workdir / "baseline.jsonl")
    run_grid(_configs(), workers=0, store=baseline_store)
    baseline = baseline_store.path.read_bytes()
    n_rows = len(baseline.splitlines())
    print(f"[chaos] baseline: {n_rows} rows, {len(baseline)} bytes")

    sock = workdir / "serve.sock"
    store = workdir / "records.jsonl"
    jdir = workdir / "journal"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["REPRO_FAULT_PLAN"] = _FAULT_PLAN
    env["REPRO_FAULT_STATE"] = str(workdir / "fault-state.json")

    # 2–4. Serve, stall deterministically, kill -9 mid-flight.
    proc = _spawn_serve(sock, store, jdir, env, "victim")
    try:
        with ServiceClient(socket_path=sock) as client:
            ack = client.submit(grid=_grid_payload())
            assert ack["ok"], ack
            job_id = ack["job_id"]
        _poll_persisted(sock, _HUNG_AFTER)
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    print(f"[chaos] SIGKILL delivered after {_HUNG_AFTER} persisted records")
    executed_before = _kernel_hits(env)

    partial = store.read_bytes()
    clean_prefix = partial[: partial.rfind(b"\n") + 1]
    assert baseline.startswith(clean_prefix), (
        "partial store is not a byte-exact prefix of the baseline"
    )
    assert len(clean_prefix.splitlines()) == _HUNG_AFTER
    interrupted = Journal(jdir).interrupted_jobs()
    assert [j.job_id for j in interrupted] == [job_id], interrupted

    # 5. Restart on the same debris; the fault counter in REPRO_FAULT_STATE
    # already recorded the hang, so recovery runs clean.
    proc = _spawn_serve(sock, store, jdir, env, "successor")
    try:
        with ServiceClient(socket_path=sock) as client:
            stats = client.stats()
            assert stats["adopted_jobs"] == [job_id], stats
            reply = client.results(job_id, wait=True)
            assert reply["ok"] and reply["state"] == "done", reply
            assert len(reply["records"]) == len(_NPROCS)
            retries = client.stats()["faults"]["retries"]
            client.shutdown()
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise
    assert proc.wait(timeout=60) == 0

    # 6. Recovery converged: byte-identical store, quiet journal, exactly
    # the unpersisted remainder re-executed, no leaked shm segments.
    recovered = store.read_bytes()
    assert recovered == baseline, (
        f"recovered store differs from baseline "
        f"({len(recovered)} vs {len(baseline)} bytes)"
    )
    assert Journal(jdir).interrupted_jobs() == []
    executed = _kernel_hits(env) - executed_before
    assert executed == len(_NPROCS) - _HUNG_AFTER, (
        f"successor executed {executed} configs, expected "
        f"{len(_NPROCS) - _HUNG_AFTER}"
    )
    assert retries == 0, f"successor retried {retries} task(s)"
    leaked = _orphan_segments()
    assert not leaked, f"leaked shm segments: {leaked}"

    print(f"[chaos] ok: kill -9 mid-flight, restart re-adopted {job_id}, "
          f"store byte-identical ({n_rows} rows), successor executed "
          f"{executed} configs with 0 retries, "
          f"/dev/shm clean (shm_transport={shm_transport})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

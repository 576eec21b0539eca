"""Recovery-to-equality suite: for every named fault point, an
interrupted-then-recovered sweep must leave the store byte-identical to a
clean serial run.

The crash matrix drives a real scheduler in a subprocess with
``REPRO_FAULT_PLAN`` set; the injected ``os._exit`` (exit code 70) is the
in-process analogue of ``kill -9``.  The shared ``REPRO_FAULT_STATE``
counter file ensures a fault that fired before the crash does not fire
again during recovery.  The randomized test replays the journal from
arbitrary truncation prefixes paired with every store prefix the job
could have persisted.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments import ResultStore, RunConfig, Scheduler, run_grid
from repro.experiments.faults import CRASH_EXIT_CODE
from repro.experiments.journal import Journal
from repro.matrices.transport import SEGMENT_PREFIX

#: the grid every driver run executes (must match _configs below)
_NPROCS = (2, 4, 8, 16)

#: generic scheduler driver: ``run`` submits the grid; ``resume`` adopts
#: interrupted journal jobs first, then submits the same grid (idempotent
#: — attaches / cache-hits — so recovery converges even from a journal
#: prefix that lost the job-submitted record)
DRIVER = textwrap.dedent(
    """
    import sys
    from repro.experiments import RunConfig, Scheduler

    mode, store, journal, workers = (
        sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
    )
    configs = [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in (2, 4, 8, 16)
    ]
    scheduler = Scheduler(
        workers=workers, store=store, journal=journal, retry_backoff=0.0
    )
    try:
        handles = []
        if mode == "resume":
            handles.extend(scheduler.adopt())
        handles.append(scheduler.submit(configs))
        for handle in handles:
            handle.wait(timeout=180)
    finally:
        scheduler.shutdown()
    """
)


def _configs() -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in _NPROCS
    ]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> bytes:
    """Store bytes of a clean, serial, uninterrupted run of the grid."""
    store = ResultStore(tmp_path_factory.mktemp("baseline") / "clean.jsonl")
    run_grid(_configs(), workers=0, store=store)
    return store.path.read_bytes()


def _drive(tmp_path: Path, mode: str, *, plan: str = "", workers: int = 2,
           extra_env: dict = None) -> subprocess.CompletedProcess:
    script = tmp_path / "driver.py"
    script.write_text(DRIVER, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).resolve().parent.parent)
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["REPRO_FAULT_PLAN"] = plan
    env["REPRO_FAULT_STATE"] = str(tmp_path / "fault-state.json")
    env.pop("REPRO_TASK_TIMEOUT", None)
    env.pop("REPRO_MAX_RETRIES", None)
    for key, value in (extra_env or {}).items():
        env[key] = value
    return subprocess.run(
        [sys.executable, str(script), mode, str(tmp_path / "store.jsonl"),
         str(tmp_path / "journal"), str(workers)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _assert_no_orphan_segments() -> None:
    """No transport segment in /dev/shm belongs to a dead process."""
    from repro.matrices.transport import _pid_alive

    shm = Path("/dev/shm")
    if not shm.is_dir():        # pragma: no cover - non-Linux
        return
    leaked = []
    for entry in shm.glob(SEGMENT_PREFIX + "*"):
        pid_part = entry.name[len(SEGMENT_PREFIX):].split("_", 1)[0]
        if not (pid_part.isdigit() and _pid_alive(int(pid_part))):
            leaked.append(entry.name)
    assert not leaked, f"leaked shm segments: {leaked}"


class TestCrashRecoveryMatrix:
    """Inject a crash at each named kill/torn point, restart, and require
    the recovered store to be byte-identical to the clean baseline."""

    @pytest.mark.parametrize("plan", [
        "kill-before-dispatch:2",
        "kill-after-execute-before-persist:2",
        "torn-journal-write:1",     # tears the job-submitted record itself
        "torn-journal-write:2",     # tears job-done after every row persisted
    ])
    def test_interrupted_then_recovered_store_is_byte_identical(
        self, tmp_path, baseline, plan
    ):
        crashed = _drive(tmp_path, "run", plan=plan)
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"expected injected crash, got rc={crashed.returncode}\n"
            f"stderr: {crashed.stderr}"
        )
        store = tmp_path / "store.jsonl"
        if store.exists():
            # Any partial store must be a byte-exact prefix of the baseline
            # (persistence happens in drain order, torn tail aside).
            partial = store.read_bytes()
            clean_prefix = partial[: partial.rfind(b"\n") + 1]
            assert baseline.startswith(clean_prefix)

        resumed = _drive(tmp_path, "resume", plan=plan)
        assert resumed.returncode == 0, (
            f"recovery failed rc={resumed.returncode}\nstderr: {resumed.stderr}"
        )
        assert store.read_bytes() == baseline
        # The journal converged too: nothing left interrupted, and a second
        # adoption would be a no-op.
        assert Journal(tmp_path / "journal").interrupted_jobs() == []
        rerun = _drive(tmp_path, "resume", plan=plan)
        assert rerun.returncode == 0
        assert store.read_bytes() == baseline

    def test_crash_leaves_no_orphan_shm_segments_after_adopt(
        self, tmp_path, baseline
    ):
        crashed = _drive(
            tmp_path, "run", plan="kill-after-execute-before-persist:2",
            extra_env={"REPRO_SHM_TRANSPORT": "1"},
        )
        assert crashed.returncode == CRASH_EXIT_CODE
        resumed = _drive(
            tmp_path, "resume", plan="kill-after-execute-before-persist:2",
            extra_env={"REPRO_SHM_TRANSPORT": "1"},
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "store.jsonl").read_bytes() == baseline
        _assert_no_orphan_segments()


class TestInRunFaultRecovery:
    """Fault points the scheduler must survive *without* a restart."""

    def test_hung_kernel_is_timed_out_and_sweep_completes(
        self, tmp_path, baseline
    ):
        """One 60s hang against a 2s task timeout: the hung worker is
        killed, the task retried, the run exits cleanly with a byte-
        identical store."""
        proc = _drive(
            tmp_path, "run", plan="hang-in-kernel:1@60",
            extra_env={"REPRO_TASK_TIMEOUT": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "store.jsonl").read_bytes() == baseline

    def test_publish_failure_degrades_to_disk_cache(self, tmp_path, baseline):
        """An injected shm-publish failure must not fail the job — the
        scheduler degrades to the disk-cache path."""
        proc = _drive(
            tmp_path, "run", plan="publish-failure:1",
            extra_env={"REPRO_SHM_TRANSPORT": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "store.jsonl").read_bytes() == baseline


class TestRandomizedCrashPoints:
    def test_recovery_from_arbitrary_journal_truncation_prefixes(
        self, tmp_path, baseline
    ):
        """Seeded sweep over journal truncation offsets: every prefix
        without ``job-done`` is paired with every store prefix (the job
        may have persisted any number of rows), a prefix with ``job-done``
        with the full store; each must recover to the byte-identical
        store."""
        # A complete journalled run provides the full journal to truncate.
        full_dir = tmp_path / "full"
        full_dir.mkdir()
        store = ResultStore(full_dir / "store.jsonl")
        run_grid(_configs(), workers=0, store=store,
                 journal=full_dir / "journal")
        journal_bytes = (full_dir / "journal" / "journal.jsonl").read_bytes()
        store_lines = store.path.read_bytes().splitlines(keepends=True)
        assert store.path.read_bytes() == baseline
        # job-done is the final record, so only the whole file holds it.
        assert [r["type"] for r in Journal(full_dir / "journal").replay()] == [
            "job-submitted", "job-done",
        ]

        rng = random.Random(0xC0FFEE)
        offsets = sorted(
            {0, len(journal_bytes)}
            | {rng.randrange(1, len(journal_bytes)) for _ in range(8)}
        )
        for offset in offsets:
            kept_rows = (
                [len(store_lines)] if offset == len(journal_bytes)
                else range(len(store_lines) + 1)
            )
            for kept in kept_rows:
                case = tmp_path / f"case-{offset}-{kept}"
                jdir = case / "journal"
                jdir.mkdir(parents=True)
                (jdir / "journal.jsonl").write_bytes(journal_bytes[:offset])
                case_store = case / "store.jsonl"
                case_store.write_bytes(b"".join(store_lines[:kept]))

                scheduler = Scheduler(workers=0, store=case_store, journal=jdir)
                try:
                    handles = scheduler.adopt()
                    handles.append(scheduler.submit(_configs()))
                    for handle in handles:
                        handle.wait(timeout=120)
                finally:
                    scheduler.shutdown()
                assert case_store.read_bytes() == baseline, (
                    f"truncation offset {offset} with {kept} store rows did "
                    "not recover to the baseline store"
                )
                assert Journal(jdir).interrupted_jobs() == []


class TestOldJournalReplay:
    def test_journal_with_retired_per_task_records_adopts_to_baseline(
        self, tmp_path, baseline
    ):
        """Journals written before the job-level grammar carry
        ``task-dispatched``/``result-persisted`` records (and a ``force``
        field); replay skips them, and adoption finishes the job to the
        baseline store."""
        configs = _configs()
        hashes = [c.config_hash() for c in configs]
        journal = Journal(tmp_path / "journal")
        journal.append(
            "job-submitted", job_id="job-1",
            configs=[c.as_dict() for c in configs],
            priority=0, budget=None, force=False,
        )
        for h in hashes:
            journal.append("task-dispatched", job_id="job-1", hash=h, attempt=1)
        for h in hashes[:2]:
            journal.append("result-persisted", job_id="job-1", hash=h)
        store_path = tmp_path / "store.jsonl"
        store_path.write_bytes(b"".join(baseline.splitlines(keepends=True)[:2]))

        jobs = journal.recover()
        assert list(jobs) == ["job-1"]
        assert jobs["job-1"].configs == [c.as_dict() for c in configs]
        assert [j.job_id for j in journal.interrupted_jobs()] == ["job-1"]

        scheduler = Scheduler(workers=0, store=store_path, journal=journal)
        try:
            handles = scheduler.adopt()
            assert [h.job_id for h in handles] == ["job-1"]
            assert handles[0].counters.cached == 2
            handles[0].wait(timeout=120)
        finally:
            scheduler.shutdown()
        assert store_path.read_bytes() == baseline
        assert journal.interrupted_jobs() == []

"""Tests for the fault plane: deterministic fault injection, the job
journal, store tail recovery, and the scheduler's worker fault policy
(timeouts, bounded retry, reassignment, backlog release on reap)."""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter

import pytest

from repro.core.pipeline import OperandCache
from repro.experiments import ResultStore, RunConfig, Scheduler, run_grid
from repro.experiments.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    install_fault_plan,
    raise_point,
    reset_fault_plan,
)
from repro.experiments.journal import Journal, JournalCorrupt
from repro.matrices.transport import SEGMENT_PREFIX, cleanup_orphan_segments


def _configs(n: int = 4) -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in (2, 4, 8, 16, 32, 64)[:n]
    ]


@pytest.fixture(autouse=True)
def _isolated_fault_plan():
    """No fault plan leaks between tests (or in from the environment)."""
    install_fault_plan(None)
    yield
    reset_fault_plan()


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------

class TestFaultSpec:
    def test_bare_point_fires_on_first_hit(self):
        spec = FaultSpec.parse("publish-failure")
        assert (spec.first, spec.last) == (1, 1)
        assert spec.covers(1) and not spec.covers(2)

    def test_nth_hit(self):
        spec = FaultSpec.parse("kill-before-dispatch:3")
        assert (spec.first, spec.last) == (3, 3)

    def test_hit_range_and_seconds(self):
        spec = FaultSpec.parse("hang-in-kernel:2-4@7.5")
        assert (spec.first, spec.last) == (2, 4)
        assert spec.seconds == 7.5
        assert spec.covers(2) and spec.covers(4) and not spec.covers(5)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec.parse("kill-the-database:1")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("hang-in-kernel:4-2")
        with pytest.raises(ValueError):
            FaultSpec.parse("hang-in-kernel:0")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.from_string("publish-failure:1,publish-failure:2")


class TestFaultPlanCounters:
    def test_local_counters_fire_deterministically(self):
        plan = FaultPlan.from_string("publish-failure:2")
        assert plan.hit("publish-failure") is None          # hit 1
        assert plan.hit("publish-failure") is not None      # hit 2 fires
        assert plan.hit("publish-failure") is None          # hit 3
        assert plan.hit("unrelated-point") is None
        assert plan.counts() == {"publish-failure": 3}

    def test_state_file_shares_counters_across_instances(self, tmp_path):
        """Two plan instances (standing in for a process and its restarted
        successor) observe one global hit sequence via the state file."""
        state = tmp_path / "faults.json"
        first = FaultPlan.from_string("publish-failure:2", state_file=state)
        second = FaultPlan.from_string("publish-failure:2", state_file=state)
        assert first.hit("publish-failure") is None         # global hit 1
        assert second.hit("publish-failure") is not None    # global hit 2
        assert first.hit("publish-failure") is None         # global hit 3
        assert json.loads(state.read_text()) == {"publish-failure": 3}

    def test_raise_point_raises_fault_injected(self):
        install_fault_plan(FaultPlan.from_string("publish-failure"))
        with pytest.raises(FaultInjected, match="publish-failure"):
            raise_point("publish-failure")

    def test_helpers_are_noops_without_a_plan(self):
        raise_point("publish-failure")      # must not raise


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append("job-submitted", job_id="job-1", configs=[])
        journal.append("job-done", job_id="job-1", state="cancelled")
        records = journal.replay()
        assert [r["type"] for r in records] == ["job-submitted", "job-done"]
        assert records[1]["state"] == "cancelled"

    def test_torn_tail_is_truncated_and_replay_continues(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append("job-submitted", job_id="job-1", configs=[])
        journal.append("job-done", job_id="job-1", state="done")
        clean = journal.path.read_bytes()
        # A crash mid-append: half of a third record, no newline.
        with journal.path.open("ab") as fh:
            fh.write(b'{"crc": 123, "rec": {"type": "job-su')
        records = journal.replay()
        assert len(records) == 2
        assert journal.path.read_bytes() == clean           # physically truncated

    def test_torn_final_line_with_newline_is_truncated(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append("job-submitted", job_id="job-1", configs=[])
        clean = journal.path.read_bytes()
        with journal.path.open("ab") as fh:
            fh.write(b'{"crc": 1, "rec": {"type": "job-done"}}\n')  # bad crc
        assert len(journal.replay()) == 1
        assert journal.path.read_bytes() == clean

    def test_interior_corruption_raises(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append("job-submitted", job_id="job-1", configs=[])
        journal.append("job-done", job_id="job-1", state="done")
        raw = bytearray(journal.path.read_bytes())
        raw[10] ^= 0xFF                 # bit-flip inside the *first* record
        journal.path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorrupt):
            journal.replay()

    def test_recover_folds_job_state(self, tmp_path):
        journal = Journal(tmp_path)
        job = type("J", (), {})()
        job.job_id, job.configs, job.priority, job.budget = (
            "job-1", tuple(_configs(2)), 3, 5,
        )
        journal.job_submitted(job)
        jobs = journal.recover()
        assert list(jobs) == ["job-1"]
        assert jobs["job-1"].interrupted
        assert jobs["job-1"].configs == [c.as_dict() for c in _configs(2)]
        assert (jobs["job-1"].priority, jobs["job-1"].budget) == (3, 5)
        journal.job_done("job-1", "failed")
        assert journal.recover()["job-1"].state == "failed"
        assert journal.interrupted_jobs() == []
        journal.job_submitted(job, adopted=True)        # adoption re-opens
        assert [j.job_id for j in journal.interrupted_jobs()] == ["job-1"]

    def test_crash_window_records_of_unknown_jobs_are_ignored(self, tmp_path):
        journal = Journal(tmp_path)
        journal.job_done("job-9", "done")               # no job-submitted
        assert journal.recover() == {}


# ----------------------------------------------------------------------
# Store tail recovery (satellite)
# ----------------------------------------------------------------------

class TestStoreRecover:
    def _store_with_rows(self, tmp_path, n: int = 2) -> ResultStore:
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(_configs(n), workers=0, store=store)
        return store

    def test_truncated_final_line_is_removed(self, tmp_path):
        store = self._store_with_rows(tmp_path)
        clean = store.path.read_bytes()
        store.path.write_bytes(clean[:-20])             # torn mid-row
        removed = store.recover()
        assert removed > 0
        rows = store.path.read_bytes()
        assert rows == clean[: len(rows)]               # byte-exact prefix
        assert rows.endswith(b"\n")
        assert len(store.load_records()) == 1

    def test_bit_flipped_trailing_row_is_removed(self, tmp_path):
        store = self._store_with_rows(tmp_path)
        raw = bytearray(store.path.read_bytes())
        raw[-10] = 0x00                                 # corrupt the last row
        store.path.write_bytes(bytes(raw))
        assert store.recover() > 0
        assert len(store.load_records()) == 1

    def test_interior_invalid_line_is_preserved(self, tmp_path):
        """Old-schema interior rows keep their skip-on-load semantics; only
        the trailing run of invalid bytes is truncated."""
        store = self._store_with_rows(tmp_path)
        lines = store.path.read_bytes().splitlines(keepends=True)
        doctored = b"not json\n" + b"".join(lines)
        store.path.write_bytes(doctored)
        assert store.recover() == 0
        assert store.path.read_bytes() == doctored
        assert len(store.load_records()) == 2

    def test_clean_store_untouched(self, tmp_path):
        store = self._store_with_rows(tmp_path)
        clean = store.path.read_bytes()
        assert store.recover() == 0
        assert store.path.read_bytes() == clean

    def test_missing_store_is_a_noop(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").recover() == 0


# ----------------------------------------------------------------------
# Worker fault policy: timeout -> kill -> retry, exactly-once persistence
# ----------------------------------------------------------------------

class TestWorkerFaultPolicy:
    def test_hung_worker_is_timed_out_and_task_retried(self, tmp_path):
        """One injected 60s hang: the worker is killed at the task timeout,
        the task retried on a fresh worker, and the store ends byte-identical
        to a clean serial run — with no duplicate rows."""
        configs = _configs(4)
        clean = ResultStore(tmp_path / "clean.jsonl")
        run_grid(configs, workers=0, store=clean)

        # The state file makes the hang a *global* one-shot: forked workers
        # share the hit counter, so exactly one attempt hangs.
        install_fault_plan(FaultPlan.from_string(
            "hang-in-kernel:1@60", state_file=tmp_path / "faults.json"
        ))
        store = ResultStore(tmp_path / "faulty.jsonl")
        scheduler = Scheduler(
            workers=2, store=store, task_timeout=1.0, max_retries=1,
            retry_backoff=0.0,
        )
        try:
            handle = scheduler.submit(configs)
            records = handle.wait(timeout=120)
            faults = scheduler.fault_stats()
        finally:
            scheduler.shutdown()
        assert len(records) == len(configs)
        assert faults["timeouts"] == 1
        assert faults["respawns"] == 1
        assert faults["retries"] == 1
        assert faults["reassigned"] == 1
        assert store.path.read_bytes() == clean.path.read_bytes()

    def test_retries_exhausted_fails_the_job(self, tmp_path, monkeypatch):
        """A task that hangs on every attempt exhausts its retry budget and
        fails the job with the reap error — after at most
        ``max_retries + 1`` executions per hash (the acceptance bound)."""
        import repro.experiments.engine as engine_mod

        ran = tmp_path / "executed.txt"
        real = engine_mod._execute_worker

        def count_then_run(config):
            with ran.open("a", encoding="utf-8") as fh:
                fh.write(config.config_hash() + "\n")
            return real(config)

        monkeypatch.setattr(engine_mod, "_execute_worker", count_then_run)
        install_fault_plan(FaultPlan.from_string(
            "hang-in-kernel:1-99@60", state_file=tmp_path / "faults.json"
        ))
        scheduler = Scheduler(
            workers=2, store=tmp_path / "records.jsonl",
            task_timeout=0.8, max_retries=1, retry_backoff=0.0,
        )
        try:
            configs = _configs(2)
            handle = scheduler.submit(configs)
            with pytest.raises(RuntimeError, match="timed out|died"):
                handle.wait(timeout=120)
            faults = scheduler.fault_stats()
        finally:
            scheduler.shutdown()
        assert faults["timeouts"] >= 2      # original + retry, per hung hash
        # Exactly-once-more bound: no hash ran more than max_retries + 1
        # times.
        executions = Counter(ran.read_text(encoding="utf-8").split())
        assert executions and all(n <= 2 for n in executions.values())

    def test_dead_worker_task_is_retried_once(self, tmp_path, monkeypatch):
        """A worker SIGKILLed mid-task (no timeout configured) is reaped via
        process death; its task is reassigned and the job completes."""
        import repro.experiments.engine as engine_mod

        flag = tmp_path / "killed-once"
        real = engine_mod._execute_worker

        def die_once(config):
            if not flag.exists():
                flag.write_bytes(b"1")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config)

        monkeypatch.setattr(engine_mod, "_execute_worker", die_once)
        store = ResultStore(tmp_path / "records.jsonl")
        scheduler = Scheduler(
            workers=2, store=store, max_retries=1, retry_backoff=0.0,
        )
        try:
            handle = scheduler.submit(_configs(4))
            records = handle.wait(timeout=120)
            faults = scheduler.fault_stats()
        finally:
            scheduler.shutdown()
        assert len(records) == 4
        assert faults["respawns"] >= 1
        assert faults["retries"] >= 1
        assert faults["timeouts"] == 0
        rows = store.load_records()
        assert len(rows) == len({r.config_hash for r in rows}) == 4

    def test_reap_drops_dead_workers_residency_snapshot(self, tmp_path):
        """Whatever the dead worker held pinned/resident died with it; the
        parent must stop reporting its stale snapshot."""
        scheduler = Scheduler(workers=2, task_timeout=0.5, max_retries=0)
        try:
            scheduler._ensure_pool()
            worker = scheduler._pool_workers[0]
            scheduler._worker_residency[worker.index] = {"hits": 99}
            worker.process.kill()
            worker.process.join(timeout=5)
            scheduler._reap_dead_workers()
            assert worker.index not in scheduler._worker_residency
            assert scheduler.fault_stats()["respawns"] == 1
            assert worker.process.is_alive()
        finally:
            scheduler.shutdown()


class TestReapReleasesBacklog:
    def test_idle_worker_steals_reaped_backlog_immediately(self, tmp_path):
        """Satellite regression: when a worker is reaped, its affinity
        backlog must become stealable in the same reap pass — an idle
        worker picks a backlog task up immediately, not after the respawned
        worker drains it alone."""
        from repro.experiments.scheduler import _Task

        scheduler = Scheduler(workers=2, max_retries=1, retry_backoff=0.0)
        try:
            scheduler._ensure_pool()
            dead, idle = scheduler._pool_workers
            configs = _configs(3)
            with scheduler._lock:
                tasks = [
                    _Task(c, c.config_hash(), "pool", owner="job-x",
                          priority=0, seq=next(scheduler._seq))
                    for c in configs
                ]
                for t in tasks:
                    scheduler._tasks[t.hash] = t
                busy, backlog_tasks = tasks[0], tasks[1:]
                busy.state = "running"
                busy.attempts = 1
                busy.started_at = time.monotonic()
                dead.busy = busy
                dead.backlog.extend(backlog_tasks)
            dead.process.kill()
            dead.process.join(timeout=5)

            scheduler._reap_dead_workers()

            with scheduler._lock:
                # The idle worker stole from the dead worker's backlog in
                # the same pass that reaped it.
                assert idle.busy in backlog_tasks
                assert scheduler.faults["respawns"] == 1
                assert scheduler.faults["reassigned"] == 1   # the busy task
            for t in tasks:
                t.done.wait(timeout=60)
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Operand pins and shm hygiene
# ----------------------------------------------------------------------

class TestOperandPinRelease:
    def test_borrow_pin_released_on_exception(self):
        """A task failing mid-execute must not leave its input pinned
        (a leaked pin would make the operand unevictable forever)."""
        cache = OperandCache(max_bytes=1 << 20)
        key = ("dataset", "hv15r", 0.05)
        cache.put(key, b"x" * 128, nbytes=128)
        with pytest.raises(RuntimeError):
            with cache.borrowing(key):
                assert cache.stats()["pinned"] == 1
                raise RuntimeError("task died")
        assert cache.stats()["pinned"] == 0


class TestOrphanSegments:
    def test_dead_owner_segments_are_unlinked(self, tmp_path):
        dead = tmp_path / f"{SEGMENT_PREFIX}999999999_0"
        alive = tmp_path / f"{SEGMENT_PREFIX}{os.getpid()}_0"
        junk = tmp_path / f"{SEGMENT_PREFIX}corrupt"
        other = tmp_path / "unrelated"
        for p in (dead, alive, junk, other):
            p.write_bytes(b"seg")
        removed = cleanup_orphan_segments(shm_dir=str(tmp_path))
        assert dead.name in removed
        assert junk.name in removed         # unparsable owner = orphan
        assert not dead.exists() and not junk.exists()
        assert alive.exists()               # live owner: untouched
        assert other.exists()               # non-transport files: untouched

    def test_missing_shm_dir_is_a_noop(self, tmp_path):
        assert cleanup_orphan_segments(shm_dir=str(tmp_path / "nope")) == []

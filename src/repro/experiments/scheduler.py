"""The experiment scheduler: jobs, lanes, admission control, dedup.

PR 2's ``run_grid`` hard-wired its scheduling policy — pool sizing, the
serial-in-parent routing of non-daemonic backends, dataset prewarm,
incremental persistence — into one function, so nothing else (the
long-lived ``repro serve`` service, concurrent sweeps sharing a store)
could reuse it.  This module carves that policy out into a reusable
subsystem:

:class:`Job`
    A frozen batch of :class:`RunConfig` points plus a priority and an
    optional per-job budget (the maximum number of *fresh* executions the
    job may trigger).

:class:`Scheduler`
    Owns the worker pool and a dedicated **serial lane**.  ``submit``
    plans a job synchronously — store-backed cache hits are short-circuited,
    duplicate config hashes inside the job collapse onto one task, and
    hashes already in flight (from any job) attach to the existing task's
    future so **each unique hash executes exactly once** — then dispatches
    the misses: pool-safe backends fan out over a ``multiprocessing`` pool,
    backends that fork helper processes of their own (shm — see
    ``Backend.pool_safe``) run on the serial lane.  Admission control
    rejects a job *with a reason* (:class:`JobRejected`) when the scheduler
    is saturated (``max_inflight_jobs`` / ``max_inflight_configs``) or the
    job exceeds its budget, before anything executes.

:class:`JobHandle`
    The submitted job's live view: thread-safe counters
    (cached/deduped/executed/serial-lane/running/done), a subscription API
    streaming progress events (the service forwards these over its
    socket), ``wait()`` for the records, and ``cancel()``.

Determinism contract — unchanged from the engine it replaces: records are
persisted by a per-job collector in the *legacy drain order* (pool-lane
tasks in submission order, then serial-lane tasks), each appended as it
completes, so (a) a store written through the scheduler is byte-identical
to one written by the pre-scheduler engine, and (b) an interrupted job
resumes from the clean prefix it already persisted.  Cache hits and
attached duplicates are never re-appended; the task's *owning* job appends
each executed record exactly once.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..runtime.backend import resolve_backend
from .config import ExperimentGrid, RunConfig
from .faults import crash_point
from .journal import Journal
from .records import RunRecord
from .store import ResultStore

__all__ = [
    "Job",
    "JobCounters",
    "JobHandle",
    "JobRejected",
    "Scheduler",
]

#: per-worker operand cache budget (MiB) unless the caller overrides it
DEFAULT_WORKER_CACHE_MB = 256

#: set to ``0``/``false``/``off`` to disable the shared-memory dataset
#: transport (workers fall back to the disk cache / regeneration)
TRANSPORT_ENV = "REPRO_SHM_TRANSPORT"

#: default per-task wall-clock timeout (seconds) for pool tasks; unset =
#: no timeout (a hung worker is only reaped when its process dies)
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: default retry budget for pool tasks lost to a dead/hung worker
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"
DEFAULT_MAX_RETRIES = 1

#: base backoff (seconds) before re-dispatching a retried task; the delay
#: scales linearly with the attempt number
DEFAULT_RETRY_BACKOFF = 0.1


def _transport_env_enabled() -> bool:
    return os.environ.get(TRANSPORT_ENV, "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


class JobRejected(RuntimeError):
    """Admission control refused a job; ``reason`` says why.

    Raised by :meth:`Scheduler.submit` *before* anything executes or is
    persisted, so a rejected job has no partial side effects to clean up.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Job:
    """A frozen batch of configs submitted to the scheduler."""

    job_id: str
    configs: Tuple[RunConfig, ...]
    #: higher runs first when lanes are contended
    priority: int = 0
    #: max fresh executions this job may trigger (None = unlimited)
    budget: Optional[int] = None
    #: re-execute even on cache hits (fresh rows shadow old store rows)
    force: bool = False


@dataclass
class JobCounters:
    """Thread-safe-by-convention counters (mutated under the scheduler lock)."""

    #: configs submitted, duplicates included
    total: int = 0
    #: unique config hashes in the job
    unique: int = 0
    #: unique hashes served straight from the store / completed-task cache
    cached: int = 0
    #: duplicate submissions collapsed onto one execution: within-job
    #: repeats plus attachments to hashes already in flight from other jobs
    deduped: int = 0
    #: fresh executions this job owns (its misses)
    executed: int = 0
    #: of those, how many were routed to the dedicated serial lane because
    #: their backend cannot run inside daemonic pool workers
    serial_lane: int = 0
    #: tasks currently executing (owned + attached)
    running: int = 0
    #: owned + attached tasks that finished executing
    done: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "unique": self.unique,
            "cached": self.cached,
            "deduped": self.deduped,
            "executed": self.executed,
            "serial_lane": self.serial_lane,
            "running": self.running,
            "done": self.done,
        }


class _Task:
    """One unique config hash in flight (shared by every job that submitted it)."""

    __slots__ = (
        "config", "hash", "lane", "owner", "priority", "seq",
        "state", "record", "error", "cancelled", "done",
        "attempts", "started_at",
    )

    def __init__(self, config: RunConfig, hash_: str, lane: str, owner: str,
                 priority: int, seq: int):
        self.config = config
        self.hash = hash_
        self.lane = lane                  # "pool" | "serial"
        self.owner = owner                # job_id responsible for persistence
        self.priority = priority
        self.seq = seq
        self.state = "queued"             # queued|running|done|failed|cancelled
        self.record: Optional[RunRecord] = None
        self.error: Optional[BaseException] = None
        self.cancelled = False
        self.done = threading.Event()
        #: dispatch attempts so far (retry accounting)
        self.attempts = 0
        #: ``time.monotonic()`` of the current dispatch (timeout detection)
        self.started_at = 0.0


def _execute_task(config: RunConfig) -> RunRecord:
    """Serial-lane executor.

    The late ``from .engine import execute_config`` re-reads the engine
    module's *current* attribute on every call, so tests that monkeypatch
    ``engine.execute_config`` keep working through the scheduler.
    """
    from .engine import execute_config

    return execute_config(config)


class _RemoteTaskError(RuntimeError):
    """Stand-in for a worker exception that could not itself be pickled."""


def _worker_residency_snapshot() -> Dict[str, int]:
    """This worker's resident-state counters, piggybacked on every result."""
    from ..core.pipeline import operand_cache
    from ..matrices import transport as dataset_transport
    from ..matrices.cache import dataset_cache_stats

    snapshot: Dict[str, int] = {}
    cache = operand_cache()
    if cache is not None:
        snapshot.update(cache.stats())
    snapshot.update(dataset_cache_stats())
    snapshot.update(dataset_transport.worker_transport_stats())
    return snapshot


def _pool_worker_main(worker_index, task_queue, result_queue, cache_bytes, env):
    """Persistent pool-worker loop (fork target; module-level by necessity).

    Each worker owns a process-wide :class:`~repro.core.pipeline.OperandCache`
    installed at startup, so the datasets and `DistributedOperand` layouts a
    task materialises stay resident for the next task the affinity router
    sends here.  ``env`` explicitly propagates the dataset disk-cache
    environment (``REPRO_DATASET_CACHE``/``_DIR``) captured at pool creation
    — the worker's cache policy follows the scheduler's, not whatever the
    parent's environment happened to be at fork time.

    Task messages are ``(seq, config, shared_ref_or_None)``; the ref (a
    :class:`~repro.matrices.transport.SharedMatrixRef`) is registered
    process-wide before executing, so the engine's input loader rehydrates
    the dataset zero-copy from shm instead of touching the disk cache.
    Results are ``(worker_index, (kind, seq, payload), residency_snapshot)``.

    Workers arm ``PR_SET_PDEATHSIG`` so a scheduler killed with ``kill -9``
    (or an injected ``os._exit`` crash point, which skips every atexit
    handler) takes its pool down with it — a crashed service must not
    orphan worker processes that would otherwise sit on their task pipes
    forever and pin inherited file descriptors open.
    """
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)      # PR_SET_PDEATHSIG
        if os.getppid() == 1:       # parent died before the prctl landed
            os._exit(0)
    except Exception:               # pragma: no cover - non-Linux
        pass
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    from ..core.pipeline import OperandCache, install_operand_cache
    from ..matrices import transport as dataset_transport

    install_operand_cache(OperandCache(max_bytes=cache_bytes))
    while True:
        item = task_queue.get()
        if item is None:
            return
        seq, config, shared_ref = item
        if shared_ref is not None:
            dataset_transport.offer_shared_dataset(
                (config.dataset, float(config.scale)), shared_ref
            )
        try:
            # Late import, like the serial lane: fork children resolve the
            # engine module's *current* attributes, so monkeypatches applied
            # before pool creation keep working.
            from .engine import _execute_worker

            payload = ("done", seq, _execute_worker(config))
        except BaseException as exc:
            try:
                pickle.dumps(exc)
            except Exception:
                exc = _RemoteTaskError(f"{type(exc).__name__}: {exc}")
            payload = ("error", seq, exc)
        snapshot = _worker_residency_snapshot()
        try:
            result_queue.put((worker_index, payload, snapshot))
        except Exception:
            fallback = _RemoteTaskError("worker result could not be pickled")
            result_queue.put((worker_index, ("error", seq, fallback), snapshot))


class _PoolWorker:
    """Parent-side view of one persistent worker process."""

    __slots__ = ("index", "process", "task_queue", "busy", "backlog")

    def __init__(self, index, process, task_queue):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        #: the task currently executing on the worker (one at a time)
        self.busy: Optional[_Task] = None
        #: affinity-routed tasks waiting for this worker
        self.backlog: "deque[_Task]" = deque()

    @property
    def load(self) -> int:
        return len(self.backlog) + (1 if self.busy is not None else 0)


def _affinity_key(config: RunConfig) -> Tuple:
    """What makes two configs share worker-resident state.

    Tasks agreeing on ``(input, scale, nprocs)`` reuse each other's
    resident dataset *and* (layout permitting) distributions, so the
    router sticks them to one worker.
    """
    return (config.matrix or config.dataset, float(config.scale),
            int(config.nprocs))


class JobHandle:
    """Live view of a submitted job: counters, events, results."""

    def __init__(self, job: Job, scheduler: "Scheduler",
                 unique_order: Sequence[str],
                 cached: Dict[str, RunRecord],
                 owned: Dict[str, _Task],
                 attached: Dict[str, _Task],
                 drain_order: Sequence[str]):
        self.job = job
        self.job_id = job.job_id
        self._scheduler = scheduler
        #: unique hashes in first-occurrence order — the result order
        self.unique_order = list(unique_order)
        self.cached = cached
        self.owned = owned
        self.attached = attached
        #: hashes of owned tasks in legacy persistence order
        self.drain_order = list(drain_order)
        self.counters = JobCounters()
        self.state = "running"            # running|done|failed|cancelled
        self.error: Optional[BaseException] = None
        self.finished = threading.Event()
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        self._sub_lock = threading.Lock()
        self.submitted_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Dict[str, object]], None]) -> None:
        """Register a progress callback; replays the current state so a
        subscriber that arrives after events fired still sees a terminal
        event (no lost ``done``)."""
        with self._sub_lock:
            self._subscribers.append(callback)
            callback(self._event("progress"))
            if self.finished.is_set():
                callback(self._event(self.state))

    def _event(self, kind: str) -> Dict[str, object]:
        event: Dict[str, object] = {
            "event": kind,
            "job_id": self.job_id,
            "state": self.state,
            "counters": self.counters.snapshot(),
        }
        if self.error is not None:
            event["error"] = str(self.error)
        return event

    def _emit(self, kind: str) -> None:
        with self._sub_lock:
            for callback in list(self._subscribers):
                try:
                    callback(self._event(kind))
                except Exception:       # pragma: no cover - subscriber bug
                    pass

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def is_finished(self) -> bool:
        return self.finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> List[RunRecord]:
        """Block until the job finishes; return one record per unique hash
        (first-occurrence order).  Re-raises the first task failure."""
        if not self.finished.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.records()

    def records(self) -> List[RunRecord]:
        """One record per unique hash, in first-occurrence order (only
        meaningful once finished; cancelled/unfinished hashes are skipped)."""
        out: List[RunRecord] = []
        for h in self.unique_order:
            if h in self.cached:
                out.append(self.cached[h])
                continue
            task = self.owned.get(h) or self.attached.get(h)
            if task is not None and task.record is not None:
                out.append(task.record)
        return out

    def cancel(self) -> None:
        """Cancel the job: owned tasks that have not started and are not
        shared with another job are skipped; running tasks finish."""
        self._scheduler._cancel_job(self)


class Scheduler:
    """Owns the worker pool + serial lane; schedules jobs of configs.

    Parameters
    ----------
    workers:
        ``0``/``1`` executes everything on the serial lane (in-process);
        ``N > 1`` fans pool-safe misses out over a ``multiprocessing`` pool
        of ``N`` workers (created lazily on first use).
    store:
        Shared :class:`ResultStore` (or path).  Consulted for cache hits at
        submit time; each executed record is appended exactly once by its
        owning job, in the job's deterministic drain order.
    max_inflight_jobs / max_inflight_configs:
        Admission control.  ``submit`` raises :class:`JobRejected` when
        accepting the job would exceed either limit (``None`` = unlimited).
    prewarm:
        Generate each unique dataset once in the parent before pool
        fan-out (the engine's historic cold-cache optimisation).
    journal:
        Optional :class:`Journal` (or directory).  When set, every
        accepted job is write-ahead logged before dispatch and
        :meth:`adopt` can re-admit interrupted jobs after a crash.
    task_timeout / max_retries / retry_backoff:
        Worker fault policy.  A pool task running longer than
        ``task_timeout`` seconds has its worker killed and is retried
        (likewise a task whose worker died), up to ``max_retries`` extra
        attempts with ``retry_backoff * attempt`` seconds of delay.
        Defaults come from ``REPRO_TASK_TIMEOUT`` / ``REPRO_MAX_RETRIES``.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        store: Optional[Union[ResultStore, str, Path]] = None,
        max_inflight_jobs: Optional[int] = None,
        max_inflight_configs: Optional[int] = None,
        prewarm: bool = True,
        worker_cache_mb: int = DEFAULT_WORKER_CACHE_MB,
        transport: Optional[bool] = None,
        journal: Optional[Union[Journal, str, Path]] = None,
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
    ):
        self.workers = max(0, int(workers))
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        if journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal)
        self.journal = journal
        self.max_inflight_jobs = max_inflight_jobs
        self.max_inflight_configs = max_inflight_configs
        self.prewarm = prewarm
        self.worker_cache_mb = max(0, int(worker_cache_mb))
        if task_timeout is None:
            task_timeout = _env_float(TASK_TIMEOUT_ENV)
        self.task_timeout = (
            float(task_timeout) if task_timeout and task_timeout > 0 else None
        )
        if max_retries is None:
            env_retries = _env_float(MAX_RETRIES_ENV)
            max_retries = (
                DEFAULT_MAX_RETRIES if env_retries is None else int(env_retries)
            )
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = (
            DEFAULT_RETRY_BACKOFF if retry_backoff is None
            else max(0.0, float(retry_backoff))
        )
        #: worker fault policy counters (the ``faults`` block in stats)
        self.faults: Dict[str, int] = {
            "retries": 0, "reassigned": 0, "timeouts": 0, "respawns": 0,
        }
        # Hung-task detection happens on the result loop's poll; it must
        # wake noticeably faster than the timeout it enforces.
        self._poll_interval = (
            1.0 if self.task_timeout is None
            else max(0.05, min(1.0, self.task_timeout / 4.0))
        )
        #: shm dataset transport: ``None`` defers to ``REPRO_SHM_TRANSPORT``
        self._transport_enabled = (
            _transport_env_enabled() if transport is None else bool(transport)
        )

        self._lock = threading.RLock()
        self._tasks: Dict[str, _Task] = {}          # hash -> in-flight task
        self._done: Dict[str, RunRecord] = {}       # completed this lifetime
        self._jobs: Dict[str, JobHandle] = {}
        self._seq = itertools.count()
        self._job_seq = itertools.count(1)
        self._closed = False

        self._serial_queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._serial_thread: Optional[threading.Thread] = None
        self._pool_workers: List[_PoolWorker] = []
        self._pool_queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._pool_thread: Optional[threading.Thread] = None
        self._result_queue = None
        self._result_thread: Optional[threading.Thread] = None
        #: affinity key -> worker index (sticky routing)
        self._affinity: Dict[Tuple, int] = {}
        #: latest residency snapshot per worker index
        self._worker_residency: Dict[int, Dict[str, int]] = {}
        #: pool tasks dispatched off their affinity worker (idle stealing)
        self.stolen = 0
        self._transport = None
        # Parent-side disk-cache counters are process-global; snapshot them
        # so residency_stats reports this scheduler's share only.
        from ..matrices.cache import dataset_cache_stats

        self._disk_stats_origin = dataset_cache_stats()
        self._collectors: List[threading.Thread] = []
        #: executed records appended to the store by this scheduler
        self.persisted = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        configs: Union[ExperimentGrid, Sequence[RunConfig]],
        *,
        priority: int = 0,
        budget: Optional[int] = None,
        force: bool = False,
        job_id: Optional[str] = None,
        _adopted: bool = False,
    ) -> JobHandle:
        """Plan and dispatch a job; raises :class:`JobRejected` when saturated.

        Planning is synchronous (cache lookup, dedup, admission, routing);
        execution is asynchronous — use the returned handle to stream
        progress or ``wait()`` for the records.  ``_adopted`` marks a job
        re-admitted by :meth:`adopt`: it bypasses the inflight limits (a
        crash must not strand jobs behind admission control) and is
        journalled as ``job-adopted``.
        """
        config_list = (
            configs.expand() if isinstance(configs, ExperimentGrid)
            else list(configs)
        )
        with self._lock:
            if self._closed:
                raise JobRejected("scheduler is shut down")
            active = [j for j in self._jobs.values() if not j.is_finished]
            if (
                not _adopted
                and self.max_inflight_jobs is not None
                and len(active) >= self.max_inflight_jobs
            ):
                raise JobRejected(
                    f"admission control: {len(active)} job(s) already in "
                    f"flight (max {self.max_inflight_jobs}); retry when one "
                    "finishes"
                )
            # Bound the finished-job history so a long-lived service never
            # grows without limit (status/results stay queryable for the
            # most recent jobs).
            if len(self._jobs) > 1024:
                for jid in [
                    j.job_id for j in self._jobs.values() if j.is_finished
                ][: len(self._jobs) - 1024]:
                    self._jobs.pop(jid, None)
            if job_id is None:
                job_id = f"job-{next(self._job_seq)}"
            job = Job(
                job_id=job_id,
                configs=tuple(config_list),
                priority=priority,
                budget=budget,
                force=force,
            )

            hashes = [c.config_hash() for c in config_list]
            unique: Dict[str, RunConfig] = {}
            for c, h in zip(config_list, hashes):
                unique.setdefault(h, c)

            cached: Dict[str, RunRecord] = {}
            if not force:
                store_cache = self.store.load() if self.store is not None else {}
                for h in unique:
                    if h in self._done:
                        cached[h] = self._done[h]
                    elif h in store_cache:
                        cached[h] = store_cache[h]

            attached: Dict[str, _Task] = {}
            misses: List[Tuple[str, RunConfig]] = []
            for h, c in unique.items():
                if h in cached:
                    continue
                task = self._tasks.get(h)
                if task is not None and not task.cancelled:
                    # In-flight collision: this job rides the existing
                    # future instead of executing the hash a second time.
                    attached[h] = task
                else:
                    misses.append((h, c))

            inflight = len(self._tasks)
            if (
                not _adopted
                and self.max_inflight_configs is not None
                and inflight + len(misses) > self.max_inflight_configs
            ):
                raise JobRejected(
                    f"admission control: job needs {len(misses)} new "
                    f"config(s) but {inflight} are already in flight "
                    f"(max {self.max_inflight_configs}); split the grid or "
                    "retry when the queue drains"
                )
            if budget is not None and len(misses) > budget:
                raise JobRejected(
                    f"budget: job requires {len(misses)} fresh execution(s) "
                    f"but its budget allows {budget}"
                )

            # Write-ahead: the accepted job hits the journal before any
            # task exists, so a crash anywhere past this line leaves a
            # recoverable record ("accepted but unfinished").
            if self.journal is not None:
                self.journal.job_submitted(job, adopted=_adopted)

            # Lane routing, mirroring the legacy engine: the pool is used
            # only when it exists (workers > 1) and more than one of this
            # job's misses can actually ride it; otherwise everything runs
            # on the serial lane in submission order.
            pool_candidates = [
                (h, c) for h, c in misses if resolve_backend(c.backend).pool_safe
            ]
            use_pool = self.workers > 1 and len(pool_candidates) > 1
            owned: Dict[str, _Task] = {}
            pool_order: List[str] = []
            serial_order: List[str] = []
            for h, c in misses:
                pool_ok = resolve_backend(c.backend).pool_safe
                lane = "pool" if (use_pool and pool_ok) else "serial"
                task = _Task(c, h, lane, owner=job_id, priority=priority,
                             seq=next(self._seq))
                self._tasks[h] = task
                owned[h] = task
                (pool_order if lane == "pool" else serial_order).append(h)

            handle = JobHandle(
                job,
                self,
                unique_order=list(unique),
                cached=cached,
                owned=owned,
                attached=attached,
                # Legacy persistence order: pooled configs first (submission
                # order — pool.imap drained in order), then the serial lane.
                drain_order=pool_order + serial_order,
            )
            c = handle.counters
            c.total = len(config_list)
            c.unique = len(unique)
            c.cached = len(cached)
            c.deduped = (len(config_list) - len(unique)) + len(attached)
            c.executed = len(owned)
            c.serial_lane = sum(
                1 for t in owned.values()
                if not resolve_backend(t.config.backend).pool_safe
            )
            self._jobs[job_id] = handle

        # Dispatch outside the lock: prewarm can generate datasets.
        if pool_order:
            self._ensure_pool()
            if self.prewarm:
                self._prewarm([owned[h].config for h in pool_order])
        if serial_order:
            self._ensure_serial_lane()
        for h in pool_order:
            task = owned[h]
            self._pool_queue.put((-task.priority, task.seq, task))
        for h in serial_order:
            task = owned[h]
            self._serial_queue.put((-task.priority, task.seq, task))

        collector = threading.Thread(
            target=self._collect_job, args=(handle,),
            name=f"repro-sched-{job_id}", daemon=True,
        )
        with self._lock:
            self._collectors.append(collector)
        collector.start()
        return handle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Scheduler-wide counters (the service's ``stats`` op)."""
        with self._lock:
            jobs = list(self._jobs.values())
            out = {
                "workers": self.workers,
                "jobs_submitted": len(jobs),
                "jobs_active": sum(1 for j in jobs if not j.is_finished),
                "configs_inflight": len(self._tasks),
                "configs_completed": len(self._done),
                "records_persisted": self.persisted,
                "max_inflight_jobs": self.max_inflight_jobs,
                "max_inflight_configs": self.max_inflight_configs,
                "faults": dict(self.faults),
            }
        out["residency"] = self.residency_stats()
        return out

    def fault_stats(self) -> Dict[str, int]:
        """Worker fault policy counters: ``retries`` (lost attempts re-run),
        ``reassigned`` (in-flight tasks moved off a reaped worker),
        ``timeouts`` (hung workers killed), ``respawns`` (workers
        restarted)."""
        with self._lock:
            return dict(self.faults)

    def residency_stats(self) -> Dict[str, object]:
        """Operand-plane counters, aggregated across lanes.

        Worker-resident operand-cache hits/misses/evictions (summed over
        the latest snapshot each pool worker piggybacked on its results)
        plus the parent's own installed cache (the serial lane), the
        dataset disk-cache hit/miss delta attributable to this scheduler,
        the affinity router's ``stolen`` count and the shm transport's
        publication totals.  Purely diagnostic — nothing here ever enters
        a record or a store.
        """
        from ..core.pipeline import operand_cache
        from ..matrices.cache import dataset_cache_stats

        aggregate = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
            "resident_bytes": 0,
            "disk_hits": 0,
            "disk_misses": 0,
            "attached_segments": 0,
            "materialised": 0,
        }
        with self._lock:
            snapshots = list(self._worker_residency.values())
            stolen = self.stolen
            workers_reporting = len(self._worker_residency)
            transport = self._transport
            faults = dict(self.faults)
        for snapshot in snapshots:
            for key in aggregate:
                aggregate[key] += int(snapshot.get(key, 0))
        cache = operand_cache()
        if cache is not None:
            parent = cache.stats()
            for key in ("hits", "misses", "evictions", "entries",
                        "resident_bytes"):
                aggregate[key] += parent[key]
        disk_now = dataset_cache_stats()
        for key in ("disk_hits", "disk_misses"):
            aggregate[key] += disk_now[key] - self._disk_stats_origin[key]
        aggregate["stolen"] = stolen
        aggregate["workers_reporting"] = workers_reporting
        transport_stats = (
            transport.stats() if transport is not None
            else {"datasets_published": 0, "shm_bytes": 0}
        )
        aggregate.update(transport_stats)
        aggregate["faults"] = faults
        return aggregate

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def adopt(self) -> List[JobHandle]:
        """Re-admit jobs a crashed predecessor left unfinished.

        Run once at startup, before accepting new submissions.  In order:
        truncate any torn tail off the result store, reap shm segments
        orphaned by the dead process, replay the journal (which likewise
        truncates its own torn tail), and re-submit every job lacking a
        ``job-done`` record — same ``job_id``, journalled as
        ``job-adopted``, bypassing admission control.  Hashes the crashed
        run already persisted come back as store cache hits, so recovery
        only executes the remainder and the store converges on the same
        bytes an uninterrupted run would have written.

        Adopted jobs always run with ``force=False`` — an interrupted
        ``force`` job must not re-execute (and duplicate) the rows it
        already persisted.  Returns the adopted handles, journal order.
        """
        if self.store is not None:
            self.store.recover()
        if self.journal is None:
            return []
        from ..matrices.transport import cleanup_orphan_segments

        cleanup_orphan_segments()
        jobs = self.journal.recover()
        # Fresh job ids must not collide with adopted ones.
        max_seq = 0
        for job_id in jobs:
            tail = job_id.rsplit("-", 1)[-1]
            if job_id.startswith("job-") and tail.isdigit():
                max_seq = max(max_seq, int(tail))
        with self._lock:
            if max_seq:
                self._job_seq = itertools.count(max_seq + 1)
            known = set(self._jobs)
        handles: List[JobHandle] = []
        for job in jobs.values():
            if not job.interrupted or job.job_id in known:
                continue
            configs = [RunConfig.from_dict(d) for d in job.configs]
            handles.append(self.submit(
                configs,
                priority=job.priority,
                budget=job.budget,
                force=False,
                job_id=job.job_id,
                _adopted=True,
            ))
        return handles

    def job(self, job_id: str) -> Optional[JobHandle]:
        with self._lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop the lanes and the pool.  Idempotent.

        ``wait=True`` joins the per-job collectors first so records that
        already finished executing are persisted before the pool dies.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            collectors = list(self._collectors)
        if wait:
            deadline = time.monotonic() + timeout
            for thread in collectors:
                thread.join(max(0.0, deadline - time.monotonic()))
        if self._serial_thread is not None:
            self._serial_queue.put((float("inf"), -1, None))   # sentinel
            self._serial_thread.join(timeout=5.0)
        if self._pool_thread is not None:
            self._pool_queue.put((float("inf"), -1, None))     # sentinel
            self._pool_thread.join(timeout=5.0)
        if self._result_thread is not None:
            self._result_queue.put(None)                       # sentinel
            self._result_thread.join(timeout=5.0)
        for worker in self._pool_workers:
            try:
                worker.task_queue.put(None)                    # sentinel
            except Exception:
                pass
        for worker in self._pool_workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        self._pool_workers = []
        if self._transport is not None:
            # Parent-owned segment lifecycle: every published segment is
            # unlinked here, after the workers holding attachments exited.
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internal: lanes
    # ------------------------------------------------------------------
    def _ensure_serial_lane(self) -> None:
        with self._lock:
            if self._serial_thread is None:
                self._serial_thread = threading.Thread(
                    target=self._serial_loop, name="repro-sched-serial",
                    daemon=True,
                )
                self._serial_thread.start()

    def _ensure_pool(self) -> None:
        with self._lock:
            if self._pool_workers:
                return
            from multiprocessing import get_context, resource_tracker

            from ..matrices.cache import CACHE_DIR_ENV, CACHE_ENV

            # Start the resource tracker *before* forking: workers then
            # inherit the parent's tracker daemon, so their attach-time shm
            # registrations are idempotent set-adds on the daemon that the
            # parent's unlink later clears.  Forking first would hand each
            # worker its own tracker, which unlinks the parent's still-live
            # segments when the worker exits.
            resource_tracker.ensure_running()
            ctx = get_context("fork")
            self._result_queue = ctx.Queue()
            # Satellite: the worker's disk-cache policy is propagated
            # explicitly, not inherited by fork-time accident.
            env = {
                CACHE_ENV: os.environ.get(CACHE_ENV),
                CACHE_DIR_ENV: os.environ.get(CACHE_DIR_ENV),
            }
            cache_bytes = self.worker_cache_mb * 1024 * 1024
            for index in range(self.workers):
                task_queue = ctx.SimpleQueue()
                process = ctx.Process(
                    target=_pool_worker_main,
                    args=(index, task_queue, self._result_queue,
                          cache_bytes, env),
                    daemon=True,
                    name=f"repro-pool-{index}",
                )
                process.start()
                self._pool_workers.append(
                    _PoolWorker(index, process, task_queue)
                )
            self._pool_thread = threading.Thread(
                target=self._pool_loop, name="repro-sched-pool",
                daemon=True,
            )
            self._pool_thread.start()
            self._result_thread = threading.Thread(
                target=self._result_loop, name="repro-sched-results",
                daemon=True,
            )
            self._result_thread.start()

    def _ensure_transport(self):
        """The shm dataset transport (created lazily; None when disabled)."""
        with self._lock:
            if not self._transport_enabled:
                return None
            if self._transport is None:
                from ..matrices.transport import DatasetTransport

                try:
                    self._transport = DatasetTransport()
                except Exception:
                    # No usable /dev/shm: degrade to the disk-cache path.
                    self._transport_enabled = False
                    return None
            return self._transport

    def _serial_loop(self) -> None:
        while True:
            _, _, task = self._serial_queue.get()
            if task is None:
                return
            self._run_inline(task)

    # The pool lane is an affinity router over persistent workers: the
    # dispatcher thread below assigns each task to the worker already
    # holding its operands resident (sticky by ``_affinity_key``), the
    # result thread feeds a worker its next backlog task as each result
    # arrives, and an idle worker steals from the longest backlog so
    # affinity never serialises a sweep.
    def _pool_loop(self) -> None:
        while True:
            _, _, task = self._pool_queue.get()
            if task is None:
                return
            with self._lock:
                if task.cancelled:
                    self._resolve(task, state="cancelled")
                    continue
                worker = self._route_locked(task)
                worker.backlog.append(task)
                self._feed_locked(worker)
                # A task routed onto a busy worker's backlog is stealable:
                # wake idle workers now, or a single-dataset sweep would
                # serialise on its affinity worker while the rest starve
                # (idle workers are otherwise only fed on task completion).
                if worker.backlog:
                    for other in self._pool_workers:
                        if other is not worker and other.busy is None:
                            self._feed_locked(other)

    def _route_locked(self, task: _Task) -> _PoolWorker:
        key = _affinity_key(task.config)
        index = self._affinity.get(key)
        if index is None:
            worker = min(self._pool_workers, key=lambda w: (w.load, w.index))
            self._affinity[key] = worker.index
            return worker
        return self._pool_workers[index]

    def _feed_locked(self, worker: _PoolWorker) -> None:
        """Dispatch the next task to an idle worker (caller holds the lock).

        Prefers the worker's own (affinity-routed) backlog; an idle worker
        with nothing queued steals the *newest* task from the longest other
        backlog — newest because it is the one whose operands are least
        likely to already be resident over there.
        """
        if worker.busy is not None:
            return
        while True:
            stolen = False
            if worker.backlog:
                task = worker.backlog.popleft()
            else:
                victim = max(
                    (w for w in self._pool_workers
                     if w is not worker and w.backlog),
                    key=lambda w: len(w.backlog),
                    default=None,
                )
                if victim is None:
                    return
                task = victim.backlog.pop()
                stolen = True
            if task.cancelled:
                self._resolve(task, state="cancelled")
                continue
            crash_point("kill-before-dispatch")
            shared_ref = None
            if not task.config.matrix:
                transport = self._transport
                if transport is not None:
                    shared_ref = transport.ref(
                        (task.config.dataset, float(task.config.scale))
                    )
            if stolen:
                self.stolen += 1
            task.attempts += 1
            task.started_at = time.monotonic()
            task.state = "running"
            self._note_running(task)
            worker.busy = task
            try:
                worker.task_queue.put((task.seq, task.config, shared_ref))
            except Exception as exc:      # worker pipe gone
                worker.busy = None
                task.error = exc
                self._resolve(task, state="failed")
                continue
            return

    def _result_loop(self) -> None:
        while True:
            try:
                item = self._result_queue.get(timeout=self._poll_interval)
            except queue.Empty:
                self._reap_dead_workers()
                continue
            if item is None:
                return
            worker_index, (kind, seq, payload), snapshot = item
            with self._lock:
                worker = self._pool_workers[worker_index]
                self._worker_residency[worker_index] = snapshot
                task = worker.busy
                if task is None or task.seq != seq:
                    # Stale result: the attempt that produced it was
                    # already reaped (a timeout kill raced the worker
                    # finishing) and a retry owns the hash now.  Accepting
                    # it would resolve — and persist — the task twice.
                    self._feed_locked(worker)
                    continue
                worker.busy = None
                if kind == "done":
                    task.record = payload
                    self._resolve(task, state="done")
                else:
                    task.error = payload
                    self._resolve(task, state="failed")
                self._feed_locked(worker)

    def _reap_dead_workers(self) -> None:
        """The worker fault policy: reap dead *and* hung workers.

        A worker whose process died mid-task, or whose current task has
        run past ``task_timeout`` (the worker is killed), is respawned;
        its in-flight task is retried within the retry budget (else
        failed), and — satellite fix — its affinity backlog is exposed to
        every idle worker *immediately*, instead of waiting for the
        respawned worker to drain it alone.
        """
        with self._lock:
            if self._closed:
                return
            now = time.monotonic()
            reaped = False
            for worker in self._pool_workers:
                task = worker.busy
                dead = not worker.process.is_alive()
                hung = (
                    not dead
                    and task is not None
                    and self.task_timeout is not None
                    and now - task.started_at > self.task_timeout
                )
                if not dead and not hung:
                    continue
                if hung:
                    self.faults["timeouts"] += 1
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                exitcode = worker.process.exitcode
                worker.busy = None
                # Whatever the worker held resident (pinned operands,
                # attached segments) died with its address space; drop the
                # stale snapshot so residency stats stop counting it.
                self._worker_residency.pop(worker.index, None)
                self.faults["respawns"] += 1
                self._respawn_locked(worker)
                reaped = True
                if task is not None:
                    detail = "timed out" if hung else "died"
                    self._task_failed_locked(task, RuntimeError(
                        f"pool worker {worker.index} {detail} executing "
                        f"{task.hash[:12]} (exit code {exitcode})"
                    ))
            if reaped:
                # The reaped workers' backlogs are stealable *now*: feed
                # every idle worker, not just the respawned ones.
                for worker in self._pool_workers:
                    if worker.busy is None:
                        self._feed_locked(worker)

    def _task_failed_locked(self, task: _Task, error: BaseException) -> None:
        """A pool attempt was lost under ``task`` (worker death/timeout):
        retry within budget, else fail (caller holds the lock)."""
        if (
            not task.cancelled
            and not self._closed
            and task.attempts <= self.max_retries
        ):
            self.faults["retries"] += 1
            self.faults["reassigned"] += 1
            self._note_stopped(task)
            task.state = "queued"
            self._requeue(task, self.retry_backoff * task.attempts)
        else:
            task.error = error
            self._resolve(task, state="failed")

    def _requeue(self, task: _Task, delay: float) -> None:
        """Put a retried task back on the pool queue after ``delay``s."""
        item = (-task.priority, task.seq, task)
        if delay <= 0:
            self._pool_queue.put(item)
            return
        timer = threading.Timer(delay, self._pool_queue.put, args=(item,))
        timer.daemon = True
        timer.start()

    def _respawn_locked(self, worker: _PoolWorker) -> None:
        from multiprocessing import get_context

        from ..matrices.cache import CACHE_DIR_ENV, CACHE_ENV

        ctx = get_context("fork")
        worker.task_queue = ctx.SimpleQueue()
        env = {
            CACHE_ENV: os.environ.get(CACHE_ENV),
            CACHE_DIR_ENV: os.environ.get(CACHE_DIR_ENV),
        }
        worker.process = ctx.Process(
            target=_pool_worker_main,
            args=(worker.index, worker.task_queue, self._result_queue,
                  self.worker_cache_mb * 1024 * 1024, env),
            daemon=True,
            name=f"repro-pool-{worker.index}",
        )
        worker.process.start()

    def _run_inline(self, task: _Task) -> None:
        with self._lock:
            if task.cancelled:
                self._resolve(task, state="cancelled")
                return
            crash_point("kill-before-dispatch")
            task.attempts += 1
            task.started_at = time.monotonic()
            task.state = "running"
            self._note_running(task)
        try:
            record = _execute_task(task.config)
        except BaseException as exc:
            with self._lock:
                task.error = exc
                self._resolve(task, state="failed")
        else:
            with self._lock:
                task.record = record
                self._resolve(task, state="done")

    def _note_running(self, task: _Task) -> None:
        for handle in self._handles_of(task):
            handle.counters.running += 1

    def _note_stopped(self, task: _Task) -> None:
        """Undo ``_note_running`` for a lost attempt about to be retried."""
        for handle in self._handles_of(task):
            handle.counters.running -= 1

    def _resolve(self, task: _Task, *, state: str) -> None:
        """Finalise a task (caller holds the lock)."""
        was_running = task.state == "running"
        task.state = state
        self._tasks.pop(task.hash, None)
        if state == "done" and task.record is not None:
            self._done[task.hash] = task.record
        for handle in self._handles_of(task):
            if was_running:
                handle.counters.running -= 1
            if state == "done":
                handle.counters.done += 1
        task.done.set()

    def _handles_of(self, task: _Task) -> List[JobHandle]:
        return [
            h for h in self._jobs.values()
            if task.hash in h.owned or task.hash in h.attached
        ]

    # ------------------------------------------------------------------
    # Internal: per-job collection (ordered persistence + events)
    # ------------------------------------------------------------------
    def _collect_job(self, handle: JobHandle) -> None:
        try:
            for h in handle.drain_order:
                task = handle.owned[h]
                task.done.wait()
                if task.error is not None:
                    self._fail_job(handle, task.error)
                    return
                if task.state == "cancelled":
                    continue
                if (
                    task.owner == handle.job_id
                    and self.store is not None
                    and task.record is not None
                ):
                    # Exactly-once, in drain order: this is what keeps the
                    # store byte-identical to the pre-scheduler engine and
                    # resumable after an interrupt.
                    crash_point("kill-after-execute-before-persist")
                    self.store.append([task.record])
                    with self._lock:
                        self.persisted += 1
                handle._emit("progress")
            for h, task in handle.attached.items():
                task.done.wait()
                if task.error is not None:
                    self._fail_job(handle, task.error)
                    return
                handle._emit("progress")
        except BaseException as exc:      # pragma: no cover - defensive
            self._fail_job(handle, exc)
            return
        with self._lock:
            handle.state = (
                "cancelled"
                if any(t.state == "cancelled" for t in handle.owned.values())
                else "done"
            )
        # After the job's last store append: a crash before this line
        # leaves no ``job-done``, so the job is re-adopted and every row it
        # already persisted comes back as a store cache hit.
        self._journal_job_done(handle.job_id, handle.state)
        handle.finished.set()
        handle._emit(handle.state)

    def _fail_job(self, handle: JobHandle, error: BaseException) -> None:
        with self._lock:
            handle.state = "failed"
            handle.error = error
        self._journal_job_done(handle.job_id, "failed")
        handle.finished.set()
        handle._emit("failed")

    def _journal_job_done(self, job_id: str, state: str) -> None:
        if self.journal is None:
            return
        try:
            self.journal.job_done(job_id, state)
        except Exception:   # journalling must never mask the job outcome
            pass

    def _cancel_job(self, handle: JobHandle) -> None:
        with self._lock:
            if handle.is_finished:
                return
            shared = set()
            for other in self._jobs.values():
                if other.job_id == handle.job_id:
                    continue
                shared.update(other.owned)
                shared.update(other.attached)
            for task in handle.owned.values():
                if task.state == "queued" and task.hash not in shared:
                    task.cancelled = True

    # ------------------------------------------------------------------
    # Internal: prewarm
    # ------------------------------------------------------------------
    def _prewarm(self, configs: Sequence[RunConfig]) -> None:
        """Load each unique dataset once in the parent and publish it.

        Without this, a cold parallel job has every pool worker miss the
        disk cache simultaneously and regenerate the same synthetic matrix.
        With the shm transport enabled the loaded matrix is additionally
        published into a shared segment, so workers rehydrate it zero-copy
        instead of re-reading (or regenerating) it per task.
        """
        from ..matrices import load_dataset
        from ..matrices.cache import dataset_cache_enabled

        transport = self._ensure_transport()
        if transport is None and not dataset_cache_enabled():
            return
        for dataset, scale in sorted({
            (c.dataset, c.scale) for c in configs if not c.matrix
        }):
            matrix = load_dataset(dataset, scale=scale)
            if transport is not None:
                try:
                    transport.publish((dataset, float(scale)), matrix)
                except Exception:
                    # Out of shm space mid-sweep: later tasks fall back to
                    # the disk cache; never fail the job over an optimisation.
                    with self._lock:
                        self._transport_enabled = False

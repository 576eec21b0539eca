"""The persistent job journal: a write-ahead log of scheduler intent.

The result store records *outcomes* — one JSONL row per executed config.
It cannot answer the question a restarted service has to ask: *which jobs
were accepted but never finished?*  The journal answers it with a
write-ahead JSONL log beside the store: every record is appended with a
single ``O_APPEND`` ``write(2)``, ``fsync``'d before the scheduler
proceeds, and carries a CRC-32 checksum so replay can tell a torn final
record (a crash mid-append) from a clean one.

The journal is job-level; it writes two records per job:

``job-submitted`` / ``job-adopted``
    The full job: id, config dicts, priority, budget.  Written *before*
    any task is dispatched, so an accepted job is always recoverable.
``job-done``
    Terminal state (``done``/``failed``/``cancelled``).  Written *after*
    the job's last store append.

Recovery invariant: a job without ``job-done`` is *interrupted* and gets
re-adopted on restart; whatever it already persisted comes back as store
cache hits, so only the unfinished remainder executes.  Per-task progress
lives in the store alone.  Record types this module does not fold (such
as the per-task records older journals carry) are skipped on replay.

Torn-write tolerance: :meth:`Journal.replay` validates every line's JSON
*and* checksum; a trailing run of invalid bytes — the only corruption a
crash mid-append can produce — is truncated off the file and replay
continues from the clean prefix.  Invalid bytes *followed by* valid
records mean real corruption and raise :class:`JournalCorrupt`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .faults import torn_write_point

__all__ = [
    "Journal",
    "JournalCorrupt",
    "JournalJob",
    "JOURNAL_FILENAME",
]

#: the journal file inside a ``--journal DIR`` directory
JOURNAL_FILENAME = "journal.jsonl"


class JournalCorrupt(RuntimeError):
    """The journal has invalid records *before* valid ones — not a torn
    tail but real corruption; refusing to guess beats replaying lies."""


def _encode(record: Dict[str, object]) -> bytes:
    """One checksummed JSONL line for ``record``."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    line = json.dumps(
        {"crc": zlib.crc32(body.encode("utf-8")), "rec": record},
        sort_keys=True,
        separators=(",", ":"),
    )
    return (line + "\n").encode("utf-8")


def _decode(line: bytes) -> Optional[Dict[str, object]]:
    """The record of one line, or ``None`` for torn/invalid bytes."""
    try:
        outer = json.loads(line.decode("utf-8"))
        record = outer["rec"]
        crc = int(outer["crc"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(body.encode("utf-8")) != crc:
        return None
    if not isinstance(record, dict) or "type" not in record:
        return None
    return record


@dataclass
class JournalJob:
    """Replayed per-job state (what the scheduler knew before the crash)."""

    job_id: str
    configs: List[Dict[str, object]] = field(default_factory=list)
    priority: int = 0
    budget: Optional[int] = None
    state: str = "running"          # running | done | failed | cancelled

    @property
    def interrupted(self) -> bool:
        return self.state == "running"


class Journal:
    """Append-only, checksummed, fsync'd JSONL journal in a directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, type_: str, **fields) -> None:
        """Durably append one record: single ``O_APPEND`` write + fsync.

        Hosts the ``torn-journal-write`` fault point: when it fires, half
        the payload is written (and fsync'd) and the process exits — the
        exact state a crash mid-append leaves behind.
        """
        record = {"type": type_, **fields}
        payload = _encode(record)
        payload, torn = torn_write_point("torn-journal-write", payload)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            view = memoryview(payload)
            while view:
                written = os.write(fd, view)
                view = view[written:]
            os.fsync(fd)
        finally:
            os.close(fd)
        if torn:
            from .faults import _crash

            _crash()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self, *, truncate: bool = True) -> List[Dict[str, object]]:
        """All valid records, tolerating a torn tail.

        A trailing run of invalid bytes is dropped — and, with
        ``truncate=True`` (the default), physically truncated off the file
        so later appends cannot splice onto torn bytes.  Invalid records
        *followed by* valid ones raise :class:`JournalCorrupt`.
        """
        if not self.path.is_file():
            return []
        raw = self.path.read_bytes()
        records: List[Dict[str, object]] = []
        pos = 0
        clean_end = 0               # offset just past the last valid record
        bad_at: Optional[int] = None
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            end = len(raw) if nl == -1 else nl
            line = raw[pos:end]
            complete = nl != -1
            if line.strip():
                record = _decode(line) if complete else None
                if record is None:
                    if bad_at is None:
                        bad_at = pos
                else:
                    if bad_at is not None:
                        raise JournalCorrupt(
                            f"{self.path}: invalid record at byte {bad_at} "
                            "is followed by valid records (not a torn tail)"
                        )
                    records.append(record)
                    clean_end = end + 1
            elif bad_at is None:
                clean_end = end + (1 if complete else 0)
            if not complete:
                break
            pos = nl + 1
        clean_end = min(clean_end, len(raw))
        if truncate and clean_end < len(raw):
            os.truncate(str(self.path), clean_end)
        return records

    def recover(self, *, truncate: bool = True) -> Dict[str, JournalJob]:
        """Fold the replayed records into per-job state, submission order."""
        jobs: Dict[str, JournalJob] = {}
        for record in self.replay(truncate=truncate):
            type_ = record.get("type")
            job_id = record.get("job_id")
            if not isinstance(job_id, str):
                continue
            if type_ in ("job-submitted", "job-adopted"):
                job = jobs.get(job_id)
                if job is None:
                    job = JournalJob(job_id=job_id)
                    jobs[job_id] = job
                job.configs = list(record.get("configs") or [])
                job.priority = int(record.get("priority") or 0)
                budget = record.get("budget")
                job.budget = None if budget is None else int(budget)
                job.state = "running"   # an adoption re-opens the job
            elif type_ == "job-done" and job_id in jobs:
                jobs[job_id].state = str(record.get("state") or "done")
        return jobs

    def interrupted_jobs(self, *, truncate: bool = True) -> List[JournalJob]:
        """Jobs submitted (or adopted) but never finished, in order."""
        return [j for j in self.recover(truncate=truncate).values() if j.interrupted]

    # ------------------------------------------------------------------
    # Scheduler-facing convenience writers
    # ------------------------------------------------------------------
    def job_submitted(self, job, *, adopted: bool = False) -> None:
        self.append(
            "job-adopted" if adopted else "job-submitted",
            job_id=job.job_id,
            configs=[c.as_dict() for c in job.configs],
            priority=job.priority,
            budget=job.budget,
        )

    def job_done(self, job_id: str, state: str) -> None:
        self.append("job-done", job_id=job_id, state=state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({str(self.directory)!r})"

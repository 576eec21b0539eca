"""JSONL persistence for experiment records, keyed by config hash.

One record per line, appended as sweeps complete.  The file is
append-only by contract: rows are never edited in place, and a re-run
with ``force=True`` shadows an older row by appending a newer one (last
write wins).  Each append batch is one ``O_APPEND`` ``write(2)``, so
concurrent sweeps over disjoint grids can share a store without
interleaving partial lines; within one engine invocation all appends
happen in the parent process, in grid order, which keeps the file
deterministic.

A :class:`ResultStore` keeps an in-memory hash → record index that
follows the file's tail.  :meth:`ResultStore.load` parses only the bytes
appended since the previous call — by this instance, another instance or
another process — so planning a submit costs O(rows appended since the
last submit), not O(store).  Visibility rules:

* A line becomes a row only once its ``\\n`` lands.  An unterminated
  tail (a torn write, or an append still in flight) is not consumed;
  :meth:`ResultStore.recover` truncates exactly such tails.
* Lines that fail to parse — torn writes with a later splice, rows from
  an incompatible schema version, bytes that are not UTF-8 — are
  skipped as cache misses rather than aborting the sweep.

The index is rebuilt from byte 0 when the path names a different file
(``os.replace``), when the file shrank below the consumed offset
(``recover()``, truncation), or when the last consumed line no longer
sits just before that offset (an in-place rewrite).  An in-place edit
that leaves the last consumed line intact breaks the append-only
contract and goes unnoticed.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .records import RunRecord

__all__ = ["ResultStore"]


def _parse_line(line: bytes) -> Optional[RunRecord]:
    """Parse one JSONL line; ``None`` (a miss) for torn/incompatible rows."""
    line = line.decode("utf-8", errors="replace").strip()
    if not line:
        return None
    try:
        return RunRecord.from_json_line(line)
    except (ValueError, KeyError, TypeError):
        return None


def _complete_lines(chunk: bytes) -> List[bytes]:
    """The newline-terminated lines of ``chunk``, without their ``\\n``."""
    lines = chunk.split(b"\n")
    lines.pop()                 # the (possibly torn) bytes after the last \n
    return lines


class ResultStore:
    """Append-only JSONL store of :class:`RunRecord` rows."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # Serialises index refreshes against appends (collector threads
        # append outside the scheduler lock).
        self._lock = threading.Lock()
        self._reset(None)

    def _reset(self, identity: Optional[Tuple[int, int]]) -> None:
        self._identity = identity   # (st_dev, st_ino) of the indexed file
        self._index: Dict[str, RunRecord] = {}
        self._rows = 0              # parseable rows consumed, duplicates included
        self._offset = 0            # just past the last consumed "\n"
        self._last_line = b""       # the consumed line ending at _offset

    def _refresh(self) -> None:
        """Consume the newline-terminated bytes appended since the last call."""
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            self._reset(None)
            return
        with fh:
            st = os.fstat(fh.fileno())
            identity = (st.st_dev, st.st_ino)
            # A file that shrank below the offset fails the tail check too.
            fh.seek(self._offset - len(self._last_line))
            if identity != self._identity or fh.read(len(self._last_line)) != self._last_line:
                self._reset(identity)
            if st.st_size == self._offset:
                return
            fh.seek(self._offset)
            chunk = fh.read()
        lines = _complete_lines(chunk)
        if not lines:
            return
        for line in lines:
            record = _parse_line(line)
            if record is not None:
                self._index[record.config_hash] = record
                self._rows += 1
        self._offset += sum(map(len, lines)) + len(lines)
        self._last_line = lines[-1] + b"\n"

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Mapping[str, RunRecord]:
        """Hash → record map of every row (last write wins).

        Returns a read-only view of the live index: later calls may add
        to it, or replace it after a rebuild.  Copy it before iterating if
        another thread may call ``load()`` on this store meanwhile.
        """
        with self._lock:
            self._refresh()
            return MappingProxyType(self._index)

    def load_records(self) -> List[RunRecord]:
        """All parseable records in file order (duplicates included).

        A full re-parse of the file, independent of the index, under the
        same visibility rules.
        """
        if not self.path.is_file():
            return []
        records = map(_parse_line, _complete_lines(self.path.read_bytes()))
        return [r for r in records if r is not None]

    def recover(self) -> int:
        """Truncate torn trailing bytes left by a crash mid-append.

        A process killed inside :meth:`append` can leave a partial final
        line (no newline, or a complete line that does not parse).  Loading
        already skips such rows, but a later append would splice new bytes
        onto the torn fragment and corrupt *that* record too — so the
        crash-safe service truncates the tail on adopt.  Only the trailing
        run of invalid data is removed; interior unparseable lines (old
        schema rows) keep their existing skip-on-load semantics.  Returns
        the number of bytes truncated.
        """
        if not self.path.is_file():
            return 0
        with self._lock:
            raw = self.path.read_bytes()
            pos = 0
            clean_end = 0               # offset just past the last valid row
            while pos < len(raw):
                nl = raw.find(b"\n", pos)
                if nl == -1:
                    break               # torn tail without a newline
                line = raw[pos:nl]
                if not line.strip() or _parse_line(line) is not None:
                    clean_end = nl + 1  # a valid row, or a harmless blank line
                pos = nl + 1
            # ``clean_end`` sits just past the last parseable row, so interior
            # invalid lines (followed by valid ones) are kept; only the
            # trailing run of invalid bytes is removed.
            removed = len(raw) - clean_end
            if removed:
                os.truncate(str(self.path), clean_end)
            return removed

    def append(self, records: Iterable[RunRecord]) -> int:
        """Append records (one JSONL line each); returns the count written.

        The whole batch goes out in a single ``write(2)`` on an
        ``O_APPEND`` descriptor, so a concurrent appender cannot land
        between the fragments of one line.  The index is left alone: the
        next :meth:`load` tails these rows like anyone else's.
        """
        records = list(records)
        if not records:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = "".join(r.to_json_line() + "\n" for r in records).encode("utf-8")
        with self._lock:
            fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                view = memoryview(payload)
                while view:
                    written = os.write(fd, view)
                    view = view[written:]
                os.fsync(fd)
            finally:
                os.close(fd)
        return len(records)

    def stats(self) -> Dict[str, object]:
        """Store summary for the service's ``stats`` op.

        ``rows`` counts every parseable line (duplicates included);
        ``unique`` counts distinct config hashes, i.e. what ``load()``
        would serve as cache hits.
        """
        with self._lock:
            self._refresh()
            return {
                "path": str(self.path),
                "exists": self.path.is_file(),
                "rows": self._rows,
                "unique": len(self._index),
                "bytes": self.path.stat().st_size if self.path.is_file() else 0,
            }

    def __len__(self) -> int:
        with self._lock:
            self._refresh()
            return self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r})"

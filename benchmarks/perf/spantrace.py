"""Span tracing from outside the program: rebind public callables, time them.

``Tracer.install(targets)`` replaces each listed public callable of the
``repro`` packages with a wrapper that records one span per call —
``(name, start, end, parent)`` — and ``uninstall()`` puts every original
back.  Nothing in ``src/`` knows it is being traced: functions are rebound
by identity in the globals of every loaded ``repro.*`` module (so
``from .x import f`` aliases are caught), methods by ``setattr`` on the
class that defines them.  Spans live in per-thread in-memory buffers (the
scheduler runs configs on its own threads) and are only summarised or
written out after the traced pass ends.

Named ``spantrace`` rather than ``trace`` so it never shadows the standard
library's ``trace`` module when this directory leads ``sys.path``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: a target: (span name, owner, attribute) — owner is a module (function)
#: or a class (method defined in that class's own ``__dict__``)
Target = Tuple[str, object, str]


class _Buffer:
    """One thread's spans, as parallel lists (index = span id)."""

    __slots__ = ("names", "starts", "ends", "parents", "stack")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original object) for ``uninstall``
        self._restore: List[Tuple[object, str, object]] = []
        #: per span name: ``before(args, kwargs) -> token`` runs ahead of
        #: the span's clock (it may add to ``kwargs``) and ``after(token,
        #: args, kwargs)`` behind it, so a count can be read at a boundary.
        #: Set both before ``install``.
        self.before_call: Dict[str, Callable] = {}
        self.after_call: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = _Buffer()
            self._local.buffer = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, name: str, fn: Callable) -> Callable:
        get_buffer = self._buffer
        clock = time.perf_counter
        before = self.before_call.get(name)
        after = self.after_call.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            idx = len(buf.names)
            buf.names.append(name)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0.0)
            stack.append(idx)
            token = before(args, kwargs) if before is not None else None
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after(token, args, kwargs)

        return traced

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for name, owner, attr in targets:
            if isinstance(owner, type):
                self._install_method(name, owner, attr)
            else:
                self._install_function(name, owner, attr)

    def _install_function(self, name: str, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _install_method(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(self._wrap(name, original.__func__))
        else:
            wrapper = self._wrap(name, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def installed(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) of everything currently rebound."""
        return list(self._restore)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self, window: Optional[Tuple[float, float]] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, cumulative seconds, self seconds.

        A span's self time is its duration minus the durations of the
        spans it directly caused (its children on the same thread).
        ``window`` keeps only spans that started inside ``(start, end)`` on
        ``time.perf_counter``'s clock — the timed region, without set-up.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "cum_s": 0.0, "self_s": 0.0}
        )
        for buf in self._buffers:
            child_time = [0.0] * len(buf.names)
            for idx, parent in enumerate(buf.parents):
                if parent >= 0:
                    child_time[parent] += buf.ends[idx] - buf.starts[idx]
            for idx, name in enumerate(buf.names):
                if window and not window[0] <= buf.starts[idx] <= window[1]:
                    continue
                duration = buf.ends[idx] - buf.starts[idx]
                row = out[name]
                row["calls"] += 1
                row["cum_s"] += duration
                row["self_s"] += duration - child_time[idx]
        return dict(out)

    def span_count(self) -> int:
        return sum(len(buf.names) for buf in self._buffers)

    def dump(self, path, *, window: Optional[Tuple[float, float]] = None,
             meta: Optional[Dict[str, object]] = None,
             max_spans: int = 200_000) -> None:
        """Write the spans as JSON: ``{"meta", "summary", "threads"}``.

        Each thread is a list of ``[name, start, end, parent]`` rows whose
        ``parent`` indexes the same list (-1 = top of that thread).  Start
        and end are seconds on ``time.perf_counter``'s clock.  When a pass
        recorded more than ``max_spans`` spans only the first ``max_spans``
        of each thread are written (the summary always covers all of them).
        """
        threads = [
            [
                [buf.names[i], buf.starts[i], buf.ends[i], buf.parents[i]]
                for i in range(min(len(buf.names), max_spans))
            ]
            for buf in self._buffers
        ]
        document = {
            "meta": dict(meta or {}, spans=self.span_count(), window=window),
            "summary": self.summary(window),
            "threads": threads,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)

"""The tail-following ResultStore index agrees with a full re-parse.

Every check compares ``load()`` against ``load_records()`` read through a
brand-new store (a full parse of the file's bytes, independent of any
index), after each step that can move the file under the index: own and
foreign appends, torn writes, ``recover()``, ``os.replace`` and in-place
rewrites.  A counting monkeypatch on ``_parse_line`` pins the O(new rows)
planning cost without measuring time.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.experiments.store as store_mod
from repro.experiments import ResultStore, RunConfig, Scheduler, run_grid


def _configs(n: int = 3) -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in (2, 4, 8, 16)[:n]
    ]


@functools.lru_cache(maxsize=None)
def _base_record():
    """One real record, executed once per test run."""
    return run_grid(_configs(1), workers=0).records[0]


@pytest.fixture
def base_record():
    return _base_record()


def _variant(base, key: str, version: int):
    """A cheap synthetic row: ``base`` under hash ``key``, tagged ``version``."""
    return dataclasses.replace(base, config_hash=key, elapsed_time=float(version))


def _line(record) -> bytes:
    return (record.to_json_line() + "\n").encode("utf-8")


def _full_parse(path: Path) -> dict:
    """hash → JSON line, last write wins, from a fresh full parse."""
    return {r.config_hash: r.to_json_line() for r in ResultStore(path).load_records()}


def assert_agrees(store: ResultStore) -> None:
    view = store.load()
    assert {h: r.to_json_line() for h, r in view.items()} == _full_parse(store.path)
    stats = store.stats()
    assert stats["rows"] == len(store) == len(ResultStore(store.path).load_records())
    assert stats["unique"] == len(view)


def _raw_append(path: Path, data: bytes) -> None:
    with open(path, "ab") as fh:
        fh.write(data)


class TestIndexFollowsTheFile:
    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert dict(store.load()) == {}
        assert len(store) == 0

    def test_load_is_read_only(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, "a", 1)])
        with pytest.raises(TypeError):
            store.load()["b"] = base_record

    def test_last_write_wins_after_forced_rerun(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(_configs(2), workers=0, store=store)
        assert_agrees(store)
        run_grid(_configs(1), workers=0, store=store, force=True)
        assert len(store) == 3 and len(store.load()) == 2
        assert_agrees(store)
        store.append([_variant(base_record, "k", 1)])
        assert_agrees(store)
        store.append([_variant(base_record, "k", 2)])
        assert store.load()["k"].elapsed_time == 2.0
        assert_agrees(store)

    def test_two_instances_share_one_path(self, tmp_path, base_record):
        path = tmp_path / "records.jsonl"
        a, b = ResultStore(path), ResultStore(path)
        a.append([_variant(base_record, "x", 1)])
        assert_agrees(b)
        b.append([_variant(base_record, "y", 1), _variant(base_record, "x", 2)])
        assert_agrees(a)
        assert a.load()["x"].elapsed_time == 2.0
        a.append([_variant(base_record, "y", 3)])
        assert_agrees(a)
        assert_agrees(b)
        assert b.load()["y"].elapsed_time == 3.0

    def test_unterminated_tail_is_invisible_until_completed(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, "a", 1)])
        assert_agrees(store)
        # A whole, parseable row whose newline has not landed yet.
        _raw_append(store.path, _line(_variant(base_record, "b", 1))[:-1])
        assert "b" not in store.load()
        assert_agrees(store)
        _raw_append(store.path, b"\n")
        assert "b" in store.load()
        assert_agrees(store)

    def test_torn_tail_with_later_splice_stays_a_miss(self, tmp_path, base_record):
        path = tmp_path / "records.jsonl"
        store, other = ResultStore(path), ResultStore(path)
        store.append([_variant(base_record, "a", 1)])
        torn = _line(_variant(base_record, "b", 1))
        _raw_append(path, torn[: len(torn) // 2])
        assert_agrees(store)
        other.append([_variant(base_record, "c", 1)])   # spliced onto the fragment
        assert set(store.load()) == {"a"}
        assert_agrees(store)
        other.append([_variant(base_record, "d", 1)])
        assert set(store.load()) == {"a", "d"}
        assert_agrees(store)

    def test_recover_truncation_rebuilds(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, "a", 1), _variant(base_record, "b", 1)])
        _raw_append(store.path, b'{"config_hash": "torn"}\n')  # consumed as a miss
        assert_agrees(store)
        assert store.recover() > 0
        assert_agrees(store)
        store.append([_variant(base_record, "c", 1)])
        assert set(store.load()) == {"a", "b", "c"}
        assert_agrees(store)

    def test_replaced_file_rebuilds(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, k, 1) for k in "abc"])
        assert_agrees(store)
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_bytes(_line(_variant(base_record, "z", 1)))
        os.replace(fresh, store.path)
        assert set(store.load()) == {"z"}
        assert_agrees(store)

    def test_replacement_sharing_the_consumed_tail_rebuilds(self, tmp_path, base_record):
        """A new file whose bytes before the offset end in the same line:
        only the file identity tells the index its earlier rows changed."""
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, "a", 1), _variant(base_record, "b", 1)])
        assert_agrees(store)
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_bytes(b"".join(_line(_variant(base_record, k, v))
                                   for k, v in (("a", 2), ("b", 1), ("c", 1))))
        os.replace(fresh, store.path)
        assert store.load()["a"].elapsed_time == 2.0
        assert_agrees(store)

    def test_same_length_in_place_rewrite_rebuilds(self, tmp_path, base_record):
        store = ResultStore(tmp_path / "records.jsonl")
        store.append([_variant(base_record, "a", 1), _variant(base_record, "a", 2)])
        assert store.load()["a"].elapsed_time == 2.0
        lines = store.path.read_bytes().splitlines(keepends=True)
        with open(store.path, "r+b") as fh:            # same inode, same size
            fh.write(b"".join(reversed(lines)))
        assert store.load()["a"].elapsed_time == 1.0
        assert_agrees(store)

    def test_concurrent_appends_and_loads(self, tmp_path, base_record):
        path = tmp_path / "records.jsonl"
        shared = ResultStore(path)
        errors = []
        done = threading.Event()

        def appender(tag: str) -> None:
            own = ResultStore(path) if tag == "foreign" else shared
            for i in range(20):
                own.append([_variant(base_record, f"{tag}-{i}", i)])

        def loader(store: ResultStore) -> None:
            # One iterating thread per instance: a view is live, so iterating
            # it races another thread's load() of the same instance.
            try:
                while not done.is_set():
                    assert set(store.load()) <= set(_full_parse(path))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def counter(store: ResultStore) -> None:
            # A second refresher of ``shared`` (as the service's stats verb
            # is beside submits); a double-counted refresh shows in the
            # final assert_agrees.
            try:
                while not done.is_set():
                    len(store)
                    store.stats()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        writers = [threading.Thread(target=appender, args=(t,))
                   for t in ("own-1", "own-2", "foreign")]
        readers = [threading.Thread(target=loader, args=(s,))
                   for s in (shared, ResultStore(path))]
        readers.append(threading.Thread(target=counter, args=(shared,)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # force interleavings inside refreshes
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        assert len(shared.load()) == 60
        assert_agrees(shared)


class TestNonUtf8Row:
    def test_flipped_byte_is_a_skipped_miss(self, tmp_path):
        """One interior 0xff byte: recover() keeps the line (interior
        corruption is preserved), and loading skips it instead of raising."""
        configs = _configs(3)
        store = ResultStore(tmp_path / "records.jsonl")
        run_grid(configs, workers=0, store=store)
        raw = bytearray(store.path.read_bytes())
        raw[raw.index(b"\n") + 1] = 0xFF                # first byte of row 2
        store.path.write_bytes(bytes(raw))

        assert store.recover() == 0
        assert len(store.load()) == 2
        assert store.stats()["rows"] == 2
        assert_agrees(store)
        result = run_grid(configs, workers=0, store=store)
        assert (result.stats.cached, result.stats.executed) == (2, 1)


class TestPlanningParsesOnlyNewRows:
    def test_cached_submit_parses_only_appended_rows(self, tmp_path, monkeypatch,
                                                     base_record):
        path = tmp_path / "records.jsonl"
        run_grid(_configs(3), workers=0, store=ResultStore(path))
        parsed = []
        real = store_mod._parse_line

        def counting(line):
            parsed.append(line)
            return real(line)

        monkeypatch.setattr(store_mod, "_parse_line", counting)
        with Scheduler(workers=0, store=path) as scheduler:
            scheduler.submit(_configs(3)).wait(timeout=60)
            assert len(parsed) == 3                    # cold: the whole store
            del parsed[:]
            job = scheduler.submit(_configs(3))
            job.wait(timeout=60)
            assert job.counters.cached == 3
            assert parsed == []                        # warm: nothing re-parsed
            ResultStore(path).append(
                [_variant(base_record, f"foreign-{i}", i) for i in range(5)]
            )
            scheduler.submit(_configs(3)).wait(timeout=60)
            assert len(parsed) == 5                    # exactly the new rows


class StoreMachine(RuleBasedStateMachine):
    """Own/foreign appends, torn writes, recover and replace, in any order;
    after every step the index equals a full re-parse."""

    KEYS = st.sampled_from("abcd")

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="store-index-"))
        self.path = self.dir / "records.jsonl"
        self.store = ResultStore(self.path)
        self.foreign = ResultStore(self.path)
        self.base = _base_record()
        self.version = 0

    def _record(self, key: str):
        self.version += 1
        return _variant(self.base, key, self.version)

    @rule(key=KEYS)
    def own_append(self, key):
        self.store.append([self._record(key)])

    @rule(key=KEYS)
    def foreign_append(self, key):
        self.foreign.append([self._record(key)])

    @rule(key=KEYS, cut=st.integers(min_value=1, max_value=200))
    def torn_write(self, key, cut):
        _raw_append(self.path, _line(self._record(key))[:cut])

    @rule()
    def recover(self):
        self.store.recover()

    @rule(keep=st.integers(min_value=0, max_value=4))
    def replace(self, keep):
        rows = ResultStore(self.path).load_records()[-keep:] if keep else []
        staged = self.dir / "staged.jsonl"
        staged.write_bytes(b"".join(_line(r) for r in rows))
        os.replace(staged, self.path)

    @rule()
    def foreign_load(self):
        assert_agrees(self.foreign)

    @invariant()
    def index_matches_full_parse(self):
        assert_agrees(self.store)

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


StoreMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreMachine = StoreMachine.TestCase

"""Tests for the ``repro serve`` experiment service and its client."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.core.pipeline import operand_cache
from repro.experiments import (
    ExperimentService,
    ResultStore,
    RunConfig,
    ServiceClient,
    run_grid,
)
from repro.experiments.service import parse_submit_configs


def _grid_payload(process_counts) -> dict:
    return {
        "datasets": ["hv15r"],
        "process_counts": list(process_counts),
        "block_splits": [16],
        "scale": 0.05,
    }


def _configs(process_counts) -> list:
    return [
        RunConfig(dataset="hv15r", nprocs=p, block_split=16, scale=0.05)
        for p in process_counts
    ]


@pytest.fixture
def service(tmp_path):
    """A live service on a unix socket; yields (service, socket, store)."""
    sock = tmp_path / "service.sock"
    store = ResultStore(tmp_path / "records.jsonl")
    svc = ExperimentService(workers=0, store=store, operand_cache_mb=64)
    ready = threading.Event()

    def run() -> None:
        asyncio.run(svc.run(socket_path=sock, ready=lambda _addr: ready.set()))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "service did not come up"
    yield svc, sock, store
    try:
        with ServiceClient(socket_path=sock) as client:
            client.shutdown()
    except (ConnectionError, OSError):
        pass  # a test already shut it down
    thread.join(timeout=30)
    assert not thread.is_alive(), "service did not shut down"


class TestProtocol:
    def test_ping(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            assert client.ping() == {"ok": True, "pong": True}

    def test_submit_status_results_round_trip(self, service):
        _svc, sock, store = service
        with ServiceClient(socket_path=sock) as client:
            ack = client.submit(grid=_grid_payload([4, 16]))
            assert ack["ok"] and ack["counters"]["unique"] == 2
            reply = client.results(ack["job_id"], wait=True)
            assert reply["ok"] and reply["state"] == "done"
            assert len(reply["records"]) == 2
            status = client.status(ack["job_id"])
            assert status["state"] == "done"
            assert status["counters"]["done"] == 2
        # Records went through the shared store, one row per unique config.
        assert len(store.load_records()) == 2

    def test_streamed_submit_terminates_with_done(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            ack = client.submit(grid=_grid_payload([4]), stream=True)
            assert ack["ok"]
            events = list(client.events())
        assert events[-1]["event"] == "done"
        assert all(e["job_id"] == ack["job_id"] for e in events)

    def test_repeat_submit_is_served_from_cache(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            first = client.submit_and_wait(grid=_grid_payload([4, 16]))
            ack = client.submit(grid=_grid_payload([4, 16]))
            assert ack["counters"]["cached"] == 2
            assert ack["counters"]["executed"] == 0
            second = client.results(ack["job_id"], wait=True)
        assert [r["config_hash"] for r in first["records"]] == [
            r["config_hash"] for r in second["records"]
        ]

    def test_unknown_job_and_unknown_op(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            reply = client.status("job-404")
            assert not reply["ok"] and "unknown job" in reply["error"]
            reply = client.request({"op": "frobnicate"})
            assert not reply["ok"] and "unknown op" in reply["error"]

    def test_malformed_requests_do_not_kill_the_connection(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            client._fh.write(b"this is not json\n")
            client._fh.flush()
            reply = client._recv()
            assert not reply["ok"] and "invalid request" in reply["error"]
            # submit without configs or grid
            reply = client.request({"op": "submit"})
            assert not reply["ok"] and "configs" in reply["error"]
            # the connection still works
            assert client.ping()["ok"]

    def test_non_positive_config_rejected_before_admission(self, service):
        svc, sock, store = service
        with ServiceClient(socket_path=sock) as client:
            reply = client.submit(configs=[{"dataset": "hv15r", "nprocs": 0}])
            assert not reply["ok"] and "nprocs must be >= 1" in reply["error"]
            reply = client.submit(grid={**_grid_payload([4]), "scale": 0})
            assert not reply["ok"] and "scale must be positive" in reply["error"]
            assert client.ping()["ok"]
        assert svc.scheduler.stats()["jobs_submitted"] == 0
        assert store.load_records() == []

    def test_admission_rejection_is_flagged(self, tmp_path):
        sock = tmp_path / "svc.sock"
        svc = ExperimentService(workers=0, max_inflight_configs=1)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                svc.run(socket_path=sock, ready=lambda _a: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        try:
            with ServiceClient(socket_path=sock) as client:
                reply = client.submit(grid=_grid_payload([4, 16]))
                assert not reply["ok"]
                assert reply["rejected"] is True
                assert "admission control" in reply["error"]
        finally:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
            thread.join(timeout=30)

    def test_stats_expose_scheduler_cache_and_store(self, service):
        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            client.submit_and_wait(grid=_grid_payload([4, 16]))
            stats = client.stats()
        assert stats["ok"]
        assert stats["scheduler"]["records_persisted"] == 2
        assert stats["store"]["rows"] == 2
        assert stats["operand_cache"]["max_bytes"] == 64 * 1024 * 1024

    def test_tcp_transport(self, tmp_path):
        svc = ExperimentService(workers=0)
        ready = threading.Event()
        address = {}

        def remember(addr: str) -> None:
            address["addr"] = addr
            ready.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(svc.run(port=0, ready=remember)),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        _kind, host, port = address["addr"].split(":")
        with ServiceClient(host=host, port=int(port)) as client:
            assert client.ping()["ok"]
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestResidentOperands:
    def test_operand_cache_installed_only_while_serving(self, service):
        svc, sock, _store = service
        assert operand_cache() is svc.operand_cache
        with ServiceClient(socket_path=sock) as client:
            client.submit_and_wait(grid=_grid_payload([4, 16]))
            stats = client.stats()["operand_cache"]
        # Two configs share one dataset: the second load was resident.
        assert stats["hits"] >= 1
        assert stats["resident_bytes"] > 0

    def test_cache_uninstalled_after_shutdown(self, tmp_path):
        sock = tmp_path / "svc.sock"
        svc = ExperimentService(workers=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                svc.run(socket_path=sock, ready=lambda _a: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        with ServiceClient(socket_path=sock) as client:
            client.shutdown()
        thread.join(timeout=30)
        assert operand_cache() is None

    def test_batch_run_grid_has_no_operand_cache(self):
        """Outside the service the hooks are a strict no-op."""
        assert operand_cache() is None
        run_grid(_configs([4]), workers=0)
        assert operand_cache() is None


class TestConcurrentJobs:
    def test_overlapping_grids_execute_each_unique_config_once(
        self, service, monkeypatch
    ):
        """Two clients submit overlapping grids concurrently; every unique
        hash executes exactly once and both jobs see full results."""
        import repro.experiments.engine as engine_mod

        calls = []
        lock = threading.Lock()
        real = engine_mod.execute_config

        def counting(config, **kwargs):
            with lock:
                calls.append(config.config_hash())
            return real(config, **kwargs)

        monkeypatch.setattr(engine_mod, "execute_config", counting)
        _svc, sock, store = service
        results = {}

        def submit(name: str, process_counts) -> None:
            with ServiceClient(socket_path=sock) as client:
                results[name] = client.submit_and_wait(
                    grid=_grid_payload(process_counts)
                )

        t_a = threading.Thread(target=submit, args=("a", [4, 16, 64]))
        t_b = threading.Thread(target=submit, args=("b", [16, 64, 128]))
        t_a.start()
        t_b.start()
        t_a.join(timeout=120)
        t_b.join(timeout=120)

        assert results["a"]["ok"] and results["b"]["ok"]
        assert len(results["a"]["records"]) == 3
        assert len(results["b"]["records"]) == 3
        # 4 unique configs across both grids; no hash ran twice.
        assert len(calls) == len(set(calls)) == 4
        assert len(store.load_records()) == 4


class TestSubmitParsing:
    def test_configs_and_grid_combine(self):
        message = {
            "configs": [{"dataset": "hv15r", "nprocs": 4}],
            "grid": {"datasets": ["queen"], "process_counts": [8]},
        }
        configs = parse_submit_configs(message)
        assert [c.dataset for c in configs] == ["hv15r", "queen"]

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            parse_submit_configs({"configs": ["not-an-object"]})
        with pytest.raises(ValueError):
            parse_submit_configs({"grid": "not-an-object"})
        with pytest.raises(ValueError):
            parse_submit_configs({})


class TestCLI:
    def test_sweep_budget_rejection_exits_3(self, capsys):
        """Satellite: admission-control rejection is a clear message and a
        distinct non-zero exit code."""
        code = main([
            "sweep", "--datasets", "hv15r", "--nprocs", "4,16",
            "--block-splits", "16", "--scale", "0.05", "--budget", "1",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "sweep rejected" in err
        assert "budget" in err

    def test_sweep_within_budget_succeeds(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        code = main([
            "sweep", "--datasets", "hv15r", "--nprocs", "4",
            "--block-splits", "16", "--scale", "0.05",
            "--records", str(records), "--budget", "1",
        ])
        assert code == 0
        assert records.is_file()

    def test_serve_requires_an_endpoint(self, capsys):
        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_serve_cli_round_trip(self, tmp_path):
        """`python -m repro serve` as a subprocess: submit over the socket,
        shut down, and find the records in the store."""
        import os
        import subprocess
        import sys

        import repro

        sock = tmp_path / "serve.sock"
        store = tmp_path / "records.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            pathlib_root(repro) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
             "--records", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            with ServiceClient(socket_path=sock) as client:
                reply = client.submit_and_wait(grid=_grid_payload([4]))
                assert reply["ok"] and len(reply["records"]) == 1
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        assert len(ResultStore(store).load_records()) == 1

    def test_service_store_matches_batch_run_grid(self, service, tmp_path):
        """A store grown through the service is byte-identical to one
        written by a plain serial run_grid of the same union."""
        _svc, sock, store = service
        with ServiceClient(socket_path=sock) as client:
            client.submit_and_wait(grid=_grid_payload([4, 16]))
            client.submit_and_wait(grid=_grid_payload([16, 64]))
        reference = ResultStore(tmp_path / "reference.jsonl")
        run_grid(_configs([4, 16, 64]), workers=0, store=reference)
        assert store.path.read_bytes() == reference.path.read_bytes()


def pathlib_root(module) -> str:
    """src/ directory of an imported package (for subprocess PYTHONPATH)."""
    import pathlib

    return str(pathlib.Path(module.__file__).resolve().parent.parent)


class TestRecordWireFormat:
    def test_records_round_trip_as_json(self, service):
        from repro.experiments import RunRecord

        _svc, sock, _store = service
        with ServiceClient(socket_path=sock) as client:
            reply = client.submit_and_wait(grid=_grid_payload([4]))
        (row,) = reply["records"]
        record = RunRecord.from_dict(json.loads(json.dumps(row)))
        assert record.config.nprocs == 4
        assert record.conserved


def test_socket_module_guard():
    """ServiceClient needs an endpoint."""
    with pytest.raises(ValueError):
        ServiceClient()


def test_unix_socket_path_is_reusable(tmp_path):
    """Restarting a service on the same socket path works (stale socket
    files are unlinked on bind)."""
    sock = tmp_path / "svc.sock"
    sock.touch()                                 # a stale leftover file
    svc = ExperimentService(workers=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            svc.run(socket_path=sock, ready=lambda _a: ready.set())
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    with ServiceClient(socket_path=sock) as client:
        assert client.ping()["ok"]
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestCrashSafeService:
    """Journal adoption through the service layer: a service started on
    the debris of a crashed predecessor finishes its interrupted jobs
    before accepting new ones."""

    @staticmethod
    def _interrupted_state(tmp_path, keep_persisted: int = 2):
        """Build a (store, journal, baseline) triple that looks like a
        service killed mid-sweep: a complete journalled run whose journal
        is cut after ``job-submitted`` and whose store keeps its first
        ``keep_persisted`` rows."""
        from repro.experiments.journal import JOURNAL_FILENAME, Journal

        prior = tmp_path / "prior"
        prior.mkdir()
        full_store = ResultStore(prior / "records.jsonl")
        run_grid(_configs([2, 4, 8, 16]), workers=0, store=full_store,
                 journal=prior / "journal")
        baseline = full_store.path.read_bytes()

        journal_lines = (
            prior / "journal" / JOURNAL_FILENAME
        ).read_bytes().splitlines(keepends=True)
        assert json.loads(journal_lines[0])["rec"]["type"] == "job-submitted"

        crashed = tmp_path / "crashed"
        jdir = crashed / "journal"
        jdir.mkdir(parents=True)
        (jdir / JOURNAL_FILENAME).write_bytes(journal_lines[0])
        store_path = crashed / "records.jsonl"
        store_lines = baseline.splitlines(keepends=True)
        store_path.write_bytes(b"".join(store_lines[:keep_persisted]))
        assert Journal(jdir).interrupted_jobs(), "state is not interrupted"
        return store_path, jdir, baseline

    @staticmethod
    def _serve(store_path, jdir, sock):
        svc = ExperimentService(
            workers=0, store=ResultStore(store_path), journal=jdir,
            operand_cache_mb=64,
        )
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                svc.run(socket_path=sock, ready=lambda _a: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30), "service did not come up"
        return svc, thread

    def test_restarted_service_adopts_and_finishes_interrupted_job(
        self, tmp_path
    ):
        store_path, jdir, baseline = self._interrupted_state(tmp_path)
        sock = tmp_path / "svc.sock"
        svc, thread = self._serve(store_path, jdir, sock)
        try:
            assert svc.adopted_jobs == ["job-1"]
            with ServiceClient(socket_path=sock) as client:
                # The adopted job is queryable under its pre-crash id and
                # runs to completion without a fresh submit.
                reply = client.results("job-1", wait=True)
                assert reply["ok"] and reply["state"] == "done"
                assert len(reply["records"]) == 4
                stats = client.stats()
                assert stats["adopted_jobs"] == ["job-1"]
                assert set(stats["faults"]) == {
                    "retries", "reassigned", "timeouts", "respawns",
                }
        finally:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
            thread.join(timeout=30)
        assert store_path.read_bytes() == baseline

    def test_second_restart_adopts_nothing(self, tmp_path):
        from repro.experiments.journal import Journal

        store_path, jdir, baseline = self._interrupted_state(tmp_path)
        sock = tmp_path / "svc.sock"
        svc, thread = self._serve(store_path, jdir, sock)
        try:
            with ServiceClient(socket_path=sock) as client:
                client.results("job-1", wait=True)
        finally:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
            thread.join(timeout=30)
        assert Journal(jdir).interrupted_jobs() == []

        svc2, thread2 = self._serve(store_path, jdir, sock)
        try:
            assert svc2.adopted_jobs == []
            with ServiceClient(socket_path=sock) as client:
                assert client.stats()["adopted_jobs"] == []
        finally:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
            thread2.join(timeout=30)
        assert store_path.read_bytes() == baseline

    def test_new_submits_on_adopted_service_stay_byte_identical(
        self, tmp_path
    ):
        """Adoption composes with fresh submits: the final store equals a
        clean serial run of the union grid."""
        store_path, jdir, _baseline = self._interrupted_state(tmp_path)
        sock = tmp_path / "svc.sock"
        _svc, thread = self._serve(store_path, jdir, sock)
        try:
            with ServiceClient(socket_path=sock) as client:
                client.results("job-1", wait=True)
                client.submit_and_wait(grid=_grid_payload([32]))
        finally:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
            thread.join(timeout=30)
        reference = ResultStore(tmp_path / "reference.jsonl")
        run_grid(_configs([2, 4, 8, 16, 32]), workers=0, store=reference)
        assert store_path.read_bytes() == reference.path.read_bytes()

"""Chaos tests: the robustness machinery under injected faults.

Three layers, increasingly end-to-end:

* unit — :func:`describe_exit` decodes worker exit codes to signal
  names, and the extended ``/healthz`` / client-retry surfaces;
* scheduler — ``REPRO_FAULTS`` crashes and hangs the worker process on
  its first attempt, and the retry loop + heartbeat watchdog must
  recover it (with the attempt trail in the job's events) without
  leaking a scheduler slot; wall-clock deadlines must fail jobs
  *permanently* on both backends;
* subprocess — ``repro serve`` is SIGKILLed mid-job and restarted on
  the same store: the journal requeues the job under its original id
  and the recomputed result is bit-identical to a direct, in-process
  analysis.  SIGTERM takes the graceful path and exits 0.  These
  servers run one job slot (``--max-jobs 1 --workers 1``); an analysis
  job runs entirely in its worker process.

Executors are **module-level** so the spawn-start worker can re-import
them; this module deliberately avoids heavyweight imports (numpy, the
engine) at module scope to keep worker spawn fast — the heartbeat
watchdog tests depend on spawn finishing well inside the timeout.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceUnavailableError,
)
from repro.service.faults import FAULTS_ENV
from repro.service.scheduler import DONE, FAILED, RUNNING, JobScheduler
from repro.service.server import AnalysisService, make_server
from repro.service.workers import describe_exit

# ----------------------------------------------------------------------
# Picklable executors
# ----------------------------------------------------------------------


def _echo_executor(params, ctx):
    ctx.emit("working", "echo")
    return {"echo": dict(params)}


def _stubborn_executor(params, ctx):
    # never reaches a checkpoint: only deadlines/watchdogs can stop it
    time.sleep(30)
    return {"stubborn": True}


def _cooperative_executor(params, ctx):
    for _ in range(600):
        ctx.check_cancelled()
        time.sleep(0.02)
    return {"cooperative": True}


def _chaos_executors():
    return {
        "echo": _echo_executor,
        "stubborn": _stubborn_executor,
        "cooperative": _cooperative_executor,
    }


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)


# ----------------------------------------------------------------------
# Unit: exit-code decoding
# ----------------------------------------------------------------------


class TestDescribeExit:
    def test_signal_exits_name_the_signal(self):
        assert "killed by SIGKILL" in describe_exit(-signal.SIGKILL)
        assert "possible OOM" in describe_exit(-signal.SIGKILL)
        assert "killed by SIGSEGV" in describe_exit(-signal.SIGSEGV)
        assert "OOM" not in describe_exit(-signal.SIGSEGV)

    def test_plain_exit_codes(self):
        assert describe_exit(1) == "exit code 1"
        assert describe_exit(None) == "no exit code"

    def test_unknown_signal_number_does_not_crash(self):
        assert describe_exit(-250)  # no such signal; still a string


# ----------------------------------------------------------------------
# Scheduler: crash -> retry -> done
# ----------------------------------------------------------------------


class TestCrashRetry:
    def _scheduler(self, **kwargs):
        kwargs.setdefault("max_concurrent", 1)
        kwargs.setdefault("backend", "process")
        kwargs.setdefault("executor_factory", _chaos_executors)
        kwargs.setdefault("kill_grace", 1.0)
        kwargs.setdefault("retry_backoff_s", 0.05)
        return JobScheduler(**kwargs)

    def test_injected_crash_is_retried_to_done(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker.start=crash:on_attempt=1")
        scheduler = self._scheduler(max_retries=2)
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(job.id, 60)
            assert job.state == DONE
            assert job.result == {"echo": {"x": 1}}
            assert job.attempt == 2
            stages = [e["stage"] for e in job.events]
            assert "retrying" in stages
            [retry] = [e for e in job.events if e["stage"] == "retrying"]
            assert "attempt 2/3" in retry["detail"]
            assert "SIGKILL" in retry["detail"]
            assert job.payload()["attempt"] == 2
        finally:
            scheduler.shutdown()

    def test_retry_exhaustion_fails_with_attempt_count(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker.start=crash")  # every attempt
        scheduler = self._scheduler(max_retries=1)
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(job.id, 60)
            assert job.state == FAILED
            assert "killed by SIGKILL" in job.error
            assert "(after 2 attempts)" in job.error
            # the slot is free again at max_concurrent=1
            monkeypatch.delenv(FAULTS_ENV)
            good, _ = scheduler.submit("echo", {"x": 2})
            assert scheduler.wait(good.id, 60)
            assert good.state == DONE
        finally:
            scheduler.shutdown()

    def test_executor_exception_is_never_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker.start=raise")
        scheduler = self._scheduler(max_retries=2)
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(job.id, 60)
            assert job.state == FAILED
            assert "FaultInjected" in job.error
            assert job.attempt == 1  # permanent: no attempts were burned
            assert "retrying" not in [e["stage"] for e in job.events]
        finally:
            scheduler.shutdown()

    def test_backoff_is_deterministic_and_capped(self):
        scheduler = self._scheduler(
            backend="thread",
            executor_factory=None,
            executors=_chaos_executors(),
            kill_grace=None,
            retry_backoff_s=0.5,
            retry_backoff_cap_s=4.0,
        )
        try:
            first = scheduler.retry_delay("job-00001", 1)
            assert first == scheduler.retry_delay("job-00001", 1)
            assert first != scheduler.retry_delay("job-00002", 1)
            assert 0.5 <= first <= 0.5 * 1.25
            # exponential growth, then the cap (plus <=25% jitter)
            assert scheduler.retry_delay("job-00001", 10) <= 4.0 * 1.25
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Scheduler: hang -> watchdog kill -> retry
# ----------------------------------------------------------------------


class TestWatchdog:
    def test_hung_worker_is_killed_and_retried(self, monkeypatch):
        # attempt 1 hangs forever before the executor (after the worker's
        # "booted" ping, so the watchdog clock is running); attempt 2 is
        # clean.  The worker never reaches a checkpoint while hung, so
        # only the heartbeat watchdog can end it.
        monkeypatch.setenv(FAULTS_ENV, "worker.start=hang:on_attempt=1")
        scheduler = JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_chaos_executors,
            kill_grace=1.0,
            heartbeat_timeout=2.5,
            max_retries=2,
            retry_backoff_s=0.05,
        )
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(job.id, 90)
            assert job.state == DONE
            assert job.attempt == 2
            stages = [e["stage"] for e in job.events]
            assert "hung" in stages
            assert "retrying" in stages
            [retry] = [e for e in job.events if e["stage"] == "retrying"]
            assert "presumed hung" in retry["detail"]
            # no slot leaked: an immediate follow-up runs at slot 1/1
            good, _ = scheduler.submit("echo", {"x": 2})
            assert scheduler.wait(good.id, 60)
            assert good.state == DONE
        finally:
            scheduler.shutdown()

    def test_heartbeating_worker_survives_a_tight_watchdog(self):
        # cooperative executor checkpoints every 20ms; each checkpoint
        # heartbeats, so even a 2.5s watchdog never fires over a ~3s job
        scheduler = JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_chaos_executors,
            kill_grace=1.0,
            heartbeat_timeout=2.5,
            retry_backoff_s=0.05,
        )
        try:
            job, _ = scheduler.submit("cooperative", {})
            assert _wait_for(lambda: job.state == RUNNING, 60)
            assert _wait_for(
                lambda: any(e["stage"] == "booted" for e in job.events), 60
            )
            time.sleep(3.0)  # longer than the watchdog timeout
            assert job.state == RUNNING
            assert "hung" not in [e["stage"] for e in job.events]
            scheduler.cancel(job.id)
            scheduler.wait(job.id, 60)
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Scheduler: wall-clock deadlines (both backends)
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_process_backend_deadline_is_permanent(self):
        scheduler = JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_chaos_executors,
            kill_grace=1.0,
            max_retries=2,
        )
        try:
            job, _ = scheduler.submit("stubborn", {}, deadline_s=1.5)
            assert scheduler.wait(job.id, 60)
            assert job.state == FAILED
            assert "deadline exceeded" in job.error
            assert job.attempt == 1  # deadline kills are never retried
            assert "deadline" in [e["stage"] for e in job.events]
            good, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(good.id, 60)
            assert good.state == DONE
        finally:
            scheduler.shutdown()

    def test_thread_backend_deadline(self):
        scheduler = JobScheduler(
            max_concurrent=1, executors=_chaos_executors()
        )
        try:
            job, _ = scheduler.submit("cooperative", {}, deadline_s=0.5)
            assert scheduler.wait(job.id, 30)
            assert job.state == FAILED
            assert "deadline exceeded" in job.error
        finally:
            scheduler.shutdown()

    def test_server_default_applies_when_request_has_none(self):
        scheduler = JobScheduler(
            max_concurrent=1,
            executors=_chaos_executors(),
            max_job_seconds=0.5,
        )
        try:
            job, _ = scheduler.submit("cooperative", {})
            assert scheduler.wait(job.id, 30)
            assert job.state == FAILED
            assert "deadline exceeded" in job.error
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# HTTP surfaces: /healthz and client retries
# ----------------------------------------------------------------------


class TestHealthz:
    def test_reports_backend_queue_uptime_and_config(self):
        service = AnalysisService(
            scheduler=JobScheduler(
                max_concurrent=2, executors=_chaos_executors()
            )
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            health = ServiceClient(f"http://{host}:{port}").health()
            assert health["ok"] is True
            assert health["backend"] == "thread"
            assert health["queue_depth"] == 0
            assert health["uptime_s"] >= 0
            assert health["recovered"]["requeued"] == 0
            config = health["config"]
            assert config["max_retries"] == 2
            assert config["heartbeat_timeout_s"] is None
            assert config["max_job_seconds"] is None
            assert config["journal"] is None
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestClientRetries:
    class _Response:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return b'{"ok": true}'

    def test_connection_failures_are_retried(self, monkeypatch):
        attempts = []

        def flaky_urlopen(request, timeout=None):
            attempts.append(request.full_url)
            if len(attempts) < 3:
                raise urllib.error.URLError(ConnectionRefusedError("refused"))
            return self._Response()

        monkeypatch.setattr(urllib.request, "urlopen", flaky_urlopen)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        client = ServiceClient("http://127.0.0.1:1", connect_retries=2)
        assert client.health() == {"ok": True}
        assert len(attempts) == 3

    def test_exhausted_retries_raise_typed_error(self, monkeypatch):
        def dead_urlopen(request, timeout=None):
            raise urllib.error.URLError(ConnectionRefusedError("refused"))

        monkeypatch.setattr(urllib.request, "urlopen", dead_urlopen)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        client = ServiceClient("http://127.0.0.1:1", connect_retries=1)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "after 2 attempts" in str(excinfo.value)

    def test_http_errors_are_not_retried(self):
        service = AnalysisService(
            scheduler=JobScheduler(
                max_concurrent=1, executors=_chaos_executors()
            )
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            with pytest.raises(Exception) as excinfo:
                client.submit("transmogrify")
            assert not isinstance(excinfo.value, ServiceUnavailableError)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# End to end: SIGKILL the server mid-job, restart, bit-identical result
# ----------------------------------------------------------------------

_BANNER = re.compile(r"repro service on http://127\.0\.0\.1:(\d+)")


def _serve_env(extra=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULTS_ENV, None)
    if extra:
        env.update(extra)
    return env


def _start_serve(store: Path, env=None, extra_args=()):
    """Launch ``repro serve --port 0`` in its own session; return
    (process, port) once the startup banner names the bound port."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", str(store),
            "--max-jobs", "1", "--workers", "1", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        env=env or _serve_env(),
        cwd=str(store.parent),
    )
    deadline = time.monotonic() + 90
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _BANNER.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        _stop_serve(proc)
        raise RuntimeError("repro serve never printed its banner")
    return proc, port


def _stop_serve(proc, sig=signal.SIGKILL):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
    try:
        proc.wait(30)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        proc.kill()
        proc.wait(10)
    if proc.stdout:
        proc.stdout.close()


@pytest.mark.slow
class TestServeRecovery:
    def test_sigkill_mid_job_then_restart_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        # a 30s stall before the executor guarantees the kill lands
        # mid-job; the restarted server runs fault-free
        slow_env = _serve_env({FAULTS_ENV: "worker.start=delay:ms=30000"})
        proc, port = _start_serve(store, env=slow_env)
        job_id = None
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit("analyze", benchmark="mult")["job_id"]
            assert _wait_for(
                lambda: client.status(job_id)["state"] == RUNNING, 60
            )
        finally:
            _stop_serve(proc, signal.SIGKILL)

        proc2, port2 = _start_serve(store)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port2}")
            # same id, recovered, and it runs to completion
            payload = client.result(job_id, timeout=120)
            assert payload["state"] == DONE
            assert payload["recovered"] is True
            stages = [
                e["stage"] for e in client.events(job_id)["events"]
            ]
            assert "recovered" in stages
            served = payload["result"]
        finally:
            _stop_serve(proc2, signal.SIGKILL)

        # bit-identical to a direct engine run in a fresh store
        from repro.bench import runner

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "ref_store")
        monkeypatch.setattr(runner, "_store", None, raising=False)
        direct = runner.x_based("mult")
        assert served["peak_power_mw"] == direct.peak_power_mw
        assert served["peak_energy_pj"] == direct.peak_energy_pj
        assert served["npe_pj_per_cycle"] == direct.npe_pj_per_cycle
        assert served["path_cycles"] == direct.path_cycles
        assert served["n_segments"] == direct.n_segments

    def test_sigterm_takes_the_graceful_path(self, tmp_path):
        proc, port = _start_serve(tmp_path / "store")
        try:
            assert ServiceClient(f"http://127.0.0.1:{port}").health()["ok"]
            os.killpg(proc.pid, signal.SIGTERM)
            assert proc.wait(30) == 0
        finally:
            _stop_serve(proc)

"""Fault isolation, real cancellation, and the service-layer bug sweep.

The process backend runs each job in a worker process forked from a
preloaded forkserver, so these tests exercise the failure modes the in-thread backend could not
survive: a worker calling ``os._exit`` mid-job, a worker that ignores
its cancel token (killed by the backstop), and a ``BaseException``
escaping an executor (must not strand a scheduler slot).  The client
tests pin the typed errors ``result()`` now raises for failed and
cancelled jobs, and the checkpoint tests pin that cancel tokens thread
through the engine's inner loops without perturbing results.

The preload tests pin what a forked worker starts from: the elaborated
CPU and its gate schedule but no native-kernel state, the server's
environment as it is at job start (the forkserver's own is frozen when
it starts), and a ``repro serve`` that writes nothing under its working
directory.

The executors below are **module-level** so the worker can import them
by reference (``tests/`` is on ``sys.path`` under pytest, and
multiprocessing forwards ``sys.path`` to the child).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.cells import SG65
from repro.core import analyze, explore
from repro.core.baselines import input_profiling
from repro.core.peakpower import compute_peak_power
from repro.core.stressmark import generate_stressmark
from repro.parallel.cancel import CancelToken, JobCancelled
from repro.power import PowerModel
from repro.service.client import (
    JobCancelledError,
    JobFailedError,
    ServiceClient,
    ServiceError,
)
from repro.service.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    JobScheduler,
)
from repro.service.server import AnalysisService, make_server

# ----------------------------------------------------------------------
# Picklable executors for the process backend
# ----------------------------------------------------------------------


def _echo_executor(params, ctx):
    ctx.emit("working", "echo")
    return {"echo": dict(params)}


def _exit_executor(params, ctx):
    os._exit(1)  # simulates a hard engine crash / OOM kill


def _stubborn_executor(params, ctx):
    # never looks at the cancel token: only the kill backstop stops it
    time.sleep(30)
    return {"stubborn": True}


def _cooperative_executor(params, ctx):
    for _ in range(600):
        ctx.check_cancelled()
        time.sleep(0.05)
    return {"cooperative": True}


def _preload_executor(params, ctx):
    from repro.bench import runner
    from repro.sim import native

    cpu = runner._cpu
    schedule = cpu._gate_schedule if cpu is not None else None
    entry = {
        "cpu_built": cpu is not None,
        "schedule_built": schedule is not None,
        "no_build": native._BUILD is None,
        "no_kernel": native._KERNEL is None,
    }
    # native, or the fallback when the job's own CC cannot build it
    evaluator = runner.shared_cpu().evaluator_for()
    inherited = schedule is not None and (
        getattr(evaluator, "program", None) is schedule[0]
        and getattr(evaluator, "lanes", None) is schedule[1]
    )
    return {
        **entry,
        "evaluator": type(evaluator).__name__,
        "schedule_inherited": inherited,
    }


def _test_executors():
    return {
        "echo": _echo_executor,
        "die": _exit_executor,
        "stubborn": _stubborn_executor,
        "cooperative": _cooperative_executor,
        "preload": _preload_executor,
    }


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Satellite: BaseException must not strand a scheduler slot
# ----------------------------------------------------------------------


class TestSlotLeak:
    def _scheduler(self, executors):
        return JobScheduler(max_concurrent=1, executors=executors)

    def test_base_exception_releases_slot(self):
        def boom(params, ctx):
            raise SystemExit("engine bailed")

        scheduler = self._scheduler({"boom": boom, "ok": _echo_executor})
        try:
            bad, _ = scheduler.submit("boom", {})
            assert scheduler.wait(bad.id, 10)
            assert bad.state == FAILED
            assert "SystemExit" in bad.error
            # the slot must be free again at max_concurrent=1
            good, _ = scheduler.submit("ok", {"x": 1})
            assert scheduler.wait(good.id, 10)
            assert good.state == DONE
        finally:
            scheduler.shutdown()

    def test_keyboard_interrupt_releases_slot(self):
        def boom(params, ctx):
            raise KeyboardInterrupt

        scheduler = self._scheduler({"boom": boom, "ok": _echo_executor})
        try:
            bad, _ = scheduler.submit("boom", {})
            assert scheduler.wait(bad.id, 10)
            assert bad.state == FAILED
            good, _ = scheduler.submit("ok", {})
            assert scheduler.wait(good.id, 10)
            assert good.state == DONE
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Tentpole: the process execution backend
# ----------------------------------------------------------------------


class TestProcessBackend:
    @pytest.fixture
    def scheduler(self):
        scheduler = JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_test_executors,
            kill_grace=1.0,
        )
        yield scheduler
        scheduler.shutdown()

    def test_rejects_executors_dict(self):
        with pytest.raises(ValueError, match="executor_factory"):
            JobScheduler(backend="process", executors={"x": _echo_executor})

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            JobScheduler(backend="carrier-pigeon")

    def test_result_and_events_round_trip(self, scheduler):
        job, _ = scheduler.submit("echo", {"x": 1})
        assert scheduler.wait(job.id, 60)
        assert job.state == DONE
        assert job.result == {"echo": {"x": 1}}
        stages = [event["stage"] for event in job.events]
        # worker-side ctx.emit events cross the pipe into the job log
        assert "working" in stages
        assert stages[-1] == "finished"

    def test_worker_crash_fails_job_and_scheduler_survives(self, scheduler):
        job, _ = scheduler.submit("die", {})
        assert scheduler.wait(job.id, 60)
        assert job.state == FAILED
        assert "died unexpectedly" in job.error
        # fault isolation: the scheduler (and its slot) survive the crash
        after, _ = scheduler.submit("echo", {"x": 2})
        assert scheduler.wait(after.id, 60)
        assert after.state == DONE

    def test_cancel_kills_stubborn_worker(self, scheduler):
        job, _ = scheduler.submit("stubborn", {})
        assert _wait_for(lambda: job.state == RUNNING)
        started = time.monotonic()
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10), "kill backstop did not fire"
        assert job.state == CANCELLED
        assert time.monotonic() - started < 10
        # the freed slot is immediately reusable
        after, _ = scheduler.submit("echo", {"x": 3})
        assert scheduler.wait(after.id, 60)
        assert after.state == DONE

    def test_cancel_cooperative_checkpoint(self, scheduler):
        job, _ = scheduler.submit("cooperative", {})
        assert _wait_for(lambda: job.state == RUNNING)
        time.sleep(0.3)  # let the worker reach its polling loop
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10)
        assert job.state == CANCELLED
        assert job.error == "cancelled while running"

    def test_inflight_dedupe_survives_backend(self, scheduler):
        first, deduped_first = scheduler.submit("stubborn", {"same": 1})
        second, deduped_second = scheduler.submit("stubborn", {"same": 1})
        assert not deduped_first and deduped_second
        assert second is first
        # once RUNNING, cancel stops the shared job (a QUEUED cancel
        # would only have peeled one merged waiter off)
        assert _wait_for(lambda: first.state == RUNNING)
        scheduler.cancel(first.id)
        assert scheduler.wait(first.id, 10)
        assert first.state == CANCELLED

    def _preload_jobs(self, scheduler, monkeypatch, compilers):
        """Run one ``preload`` job per entry of *compilers*, each with
        ``CC`` set to it in the server's environment (``None``: the
        host's own)."""
        host_cc = os.environ.get("CC")
        results = []
        for step, cc in enumerate(compilers):
            if cc is not None:
                monkeypatch.setenv("CC", cc)
            elif host_cc is None:
                monkeypatch.delenv("CC", raising=False)
            else:
                monkeypatch.setenv("CC", host_cc)
            job, _ = scheduler.submit("preload", {"step": step})
            assert scheduler.wait(job.id, 60)
            assert job.state == DONE, job.error
            results.append(job.result)
        return results

    def test_worker_starts_elaborated_without_kernel_state(
        self, scheduler, monkeypatch
    ):
        """A worker starts with the CPU and its gate schedule built but no
        kernel state; its native evaluator adopts the inherited schedule
        (builds no ``NetlistProgram`` or ``LaneTables``).  With a ``CC``
        that cannot build the kernel the job falls back to the reference
        evaluator, and adopts no schedule."""
        from repro.sim.native import find_compiler

        entry = {
            "cpu_built": True, "schedule_built": True,
            "no_build": True, "no_kernel": True,
        }
        native, failing = self._preload_jobs(
            scheduler, monkeypatch, (None, "false")
        )
        # without a compiler the native engine is the reference fallback
        compiled = find_compiler() is not None
        assert native == {
            **entry,
            "evaluator": (
                "NativeEvaluator" if compiled else "LevelizedEvaluator"
            ),
            "schedule_inherited": compiled,
        }
        assert failing == {
            **entry,
            "evaluator": "LevelizedEvaluator",
            "schedule_inherited": False,
        }

    def test_worker_sees_the_environment_at_job_start(
        self, scheduler, monkeypatch
    ):
        """Each job reads the server's environment as it is when the job
        starts, not as the forkserver found it."""
        from repro.sim.native import find_compiler

        host = (
            "NativeEvaluator" if find_compiler() is not None
            else "LevelizedEvaluator"
        )
        results = self._preload_jobs(
            scheduler, monkeypatch, (None, "false", None)
        )
        assert [r["evaluator"] for r in results] == [
            host, "LevelizedEvaluator", host,
        ]

    @pytest.mark.slow
    def test_serve_writes_nothing_under_its_cwd(self, tmp_path):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        store = tmp_path / "s"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--store", str(store), "--max-jobs", "1",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True, env=env, cwd=str(cwd),
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            client = ServiceClient(f"http://127.0.0.1:{match.group(1)}")
            job = client.submit("analyze", benchmark="mult")
            assert client.result(job["job_id"], timeout=120)["state"] == DONE
        finally:
            os.killpg(proc.pid, signal.SIGTERM)
            assert proc.wait(60) == 0
            proc.stdout.close()
        assert not (cwd / ".repro_cache").exists()
        assert list(cwd.iterdir()) == []


# ----------------------------------------------------------------------
# HTTP layer over the process backend (the acceptance criteria)
# ----------------------------------------------------------------------


@pytest.fixture
def process_service():
    service = AnalysisService(
        scheduler=JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_test_executors,
            kill_grace=1.0,
        )
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestProcessBackendOverHTTP:
    def test_crash_fails_one_job_server_keeps_serving(self, process_service):
        client, _ = process_service
        job = client.submit("die")
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=60)
        assert err.value.status == 500
        assert "died unexpectedly" in err.value.payload["error"]
        assert client.health()["ok"] is True
        after = client.submit("echo", x=1)
        payload = client.result(after["job_id"], timeout=60)
        assert payload["result"] == {"echo": {"x": 1}}

    def test_delete_running_job_terminates_and_frees_slot(
        self, process_service
    ):
        client, _ = process_service
        job = client.submit("stubborn")
        assert _wait_for(
            lambda: client.status(job["job_id"])["state"] == RUNNING
        )
        started = time.monotonic()
        response = client.cancel(job["job_id"])
        assert response["cancel_requested"] is True
        assert _wait_for(
            lambda: client.status(job["job_id"])["state"] == CANCELLED,
            timeout=10,
        ), "DELETE on a RUNNING job did not reach a terminal state"
        assert time.monotonic() - started < 10
        assert client.health()["ok"] is True
        with pytest.raises(JobCancelledError) as err:
            client.result(job["job_id"], timeout=10)
        assert err.value.status == 409
        # the slot is reclaimed: a fresh submit runs to completion
        after = client.submit("echo", x=2)
        assert client.result(after["job_id"], timeout=60)["state"] == "done"


# ----------------------------------------------------------------------
# Satellites: typed client errors, poll formatting, narrowed 404
# ----------------------------------------------------------------------


def _cooperative_thread_executor(params, ctx):
    for _ in range(200):
        ctx.check_cancelled()
        time.sleep(0.05)
    return {"slept": True}


def _boom_executor(params, ctx):
    raise RuntimeError("engine exploded")


@pytest.fixture
def thread_service():
    service = AnalysisService(
        scheduler=JobScheduler(
            max_concurrent=1,
            executors={
                "boom": _boom_executor,
                "sleep": _cooperative_thread_executor,
                "echo": _echo_executor,
            },
        )
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestClientTypedErrors:
    def test_failed_job_raises_job_failed_error(self, thread_service):
        client, _ = thread_service
        job = client.submit("boom")
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=30)
        assert err.value.status == 500
        assert err.value.payload["job_id"] == job["job_id"]
        assert "engine exploded" in err.value.payload["error"]
        # JobFailedError is still a ServiceError: old handlers keep working
        assert isinstance(err.value, ServiceError)

    def test_cancelled_job_raises_job_cancelled_error(self, thread_service):
        client, _ = thread_service
        running = client.submit("sleep", which="running")
        queued = client.submit("sleep", which="queued")
        response = client.cancel(queued["job_id"])
        assert response["cancelled"] is True  # queued: died immediately
        with pytest.raises(JobCancelledError) as err:
            client.result(queued["job_id"], timeout=30)
        assert err.value.status == 409
        assert err.value.payload["job_id"] == queued["job_id"]
        client.cancel(running["job_id"])  # cooperative: unblocks teardown

    def test_genuine_server_keyerror_is_500_not_404(self, thread_service):
        client, service = thread_service

        def broken_counts():
            raise KeyError("server-side bug")

        service.scheduler.counts = broken_counts
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 500  # not masked as "not found"

    def test_unknown_job_is_still_404(self, thread_service):
        client, _ = thread_service
        with pytest.raises(ServiceError) as err:
            client.status("job-99999")
        assert err.value.status == 404


class TestResultPolling:
    def test_subsecond_budget_does_not_truncate_to_zero(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        paths = []

        def fake_request(method, path, body=None, timeout=None):
            paths.append(path)
            return {"state": "done"}

        monkeypatch.setattr(client, "_request", fake_request)
        client.result("job-1", timeout=0.4)
        assert len(paths) == 1
        # a 0.4s budget must reach the server as 0.400, not 0 (which the
        # old %.0f formatting produced, busy-looping out the deadline)
        assert "timeout=0.400" in paths[0]

    def test_exhausted_budget_raises_timeout(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")

        def never_done(method, path, body=None, timeout=None):
            return {"state": "running"}

        monkeypatch.setattr(client, "_request", never_done)
        with pytest.raises(TimeoutError):
            client.result("job-1", timeout=0.2)


# ----------------------------------------------------------------------
# Cancel checkpoints inside the engine's inner loops
# ----------------------------------------------------------------------


def _program(body: str, inputs: str = ""):
    return assemble(
        f".equ WDTCTL, 0x0120\n.org 0xF000\n"
        f"start: mov #0x5A80, &WDTCTL\n{body}\nend: jmp end\n{inputs}",
        "t",
    )


STRAIGHT = _program("mov #5, r4\n add r4, r4")


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def _tripped():
    token = CancelToken()
    token.set()
    return token


class TestEngineCheckpoints:
    def test_explore_checkpoint(self, cpu):
        with pytest.raises(JobCancelled):
            explore(cpu, STRAIGHT, cancel=_tripped())

    def test_peak_power_checkpoint(self, cpu, model):
        tree = explore(cpu, STRAIGHT)
        with pytest.raises(JobCancelled):
            compute_peak_power(tree, model, cancel=_tripped())

    def test_stressmark_checkpoint(self, cpu, model):
        with pytest.raises(JobCancelled):
            generate_stressmark(
                cpu, model, population=4, generations=2,
                genome_length=4, cancel=_tripped(),
            )

    def test_stressmark_checks_every_generation_across_islands(
        self, cpu, model, monkeypatch
    ):
        """A token set during the first generation's scoring stops the
        GA before the second, even inside a migration interval."""
        from repro.core import stressmark

        token = CancelToken()
        calls = []

        def score_then_cancel(cpu, model, pool):
            calls.append(len(pool))
            token.set()
            return [(1.0, 1.0)] * len(pool)

        monkeypatch.setattr(
            stressmark, "_evaluate_population", score_then_cancel
        )
        with pytest.raises(JobCancelled):
            generate_stressmark(
                cpu, model, population=4, generations=2, genome_length=4,
                islands=2, migration_interval=2, cancel=token,
            )
        assert calls == [8]

    def test_input_profiling_checkpoint(self, cpu, model):
        with pytest.raises(JobCancelled):
            input_profiling(
                cpu, STRAIGHT, [[0], [1]], model, cancel=_tripped()
            )

    def test_job_cancelled_pierces_except_exception(self):
        # JobCancelled is a BaseException on purpose: broad recovery
        # paths (``except Exception``) must not swallow a cancellation
        with pytest.raises(JobCancelled):
            try:
                raise JobCancelled("cancelled")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("JobCancelled was swallowed by except Exception")

    def test_unset_token_does_not_perturb_results(self, cpu, model):
        plain = analyze(cpu, STRAIGHT, model)
        tokened = analyze(cpu, STRAIGHT, model, cancel=CancelToken())
        assert tokened.peak_power_mw == plain.peak_power_mw
        assert tokened.peak_energy_pj == plain.peak_energy_pj

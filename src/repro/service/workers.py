"""Process-pool job execution: fault isolation + real cancellation.

Each job runs in its own worker process rather than on a scheduler
thread inside the server.  Workers are forked from one **forkserver**
whose preload (:mod:`repro.service.preload`) has already imported the
engine and elaborated the ULP430, its ``PowerModel`` and the store
fingerprint, so a job pays a fork instead of an interpreter boot:

* **Fault isolation** — an engine that segfaults, is OOM-killed, or
  calls ``os._exit`` takes down one worker process; the scheduler maps
  the dead worker to one FAILED job and the server keeps serving.
* **Real cancellation** — the worker checks a shared
  ``multiprocessing.Event`` at the engine's cooperative checkpoints
  (path-queue batches, segment chunks, GA generations — see
  :mod:`repro.parallel.cancel`); if the worker does not reach a
  checkpoint within the kill grace period, the monitor SIGKILLs the
  worker's whole process group as the backstop.  Either way a DELETE on
  a RUNNING job reaches a terminal state and frees its slot.
* **No fork-in-threads** — the forkserver is a single-threaded process
  started before any job, so forking workers from it is safe while the
  server runs threads.  Every job, a stressmark included, runs entirely
  in its worker process.

The worker calls ``os.setsid()`` on entry, so the backstop ``killpg``
takes down the worker's whole process group.

Protocol over the one-way pipe, worker → monitor::

    ("event", stage, detail)   progress, forwarded to the job's stream
    ("hb", None)               heartbeat ping (swallowed, not an event)
    ("done", result)           executor returned *result* (a JSON dict)
    ("cancelled", None)        a checkpoint observed the cancel event
    ("failed", detail)         executor raised; detail is "Type: message"

EOF without a terminal message means the worker died; the monitor turns
that into :class:`WorkerCrashed` (or a cancellation, if one was
pending), with negative exit codes decoded to their signal names —
``killed by SIGKILL — possible OOM or external kill`` triages from the
job's error field alone.

The monitor is also the **watchdog**.  Every pipe message refreshes a
last-heard-from clock; the engine's cooperative checkpoints double as
throttled heartbeat pings (:class:`repro.parallel.cancel.CancelToken`'s
``heartbeat`` hook), so a worker that is *computing* stays loud while a
worker that is *stuck* — wedged kernel, injected hang — goes silent.
Silence past ``heartbeat_timeout`` kills the worker's process group and
raises :class:`WorkerHung` (retryable, like a crash).  Independently, a
per-job wall-clock deadline (``max_job_seconds`` server-wide, or the
job's own ``deadline_s``) kills an overrunning worker and raises
:class:`DeadlineExceeded` — a *permanent* failure: the job was not
unlucky, it was too big for its budget.

Results are bit-identical to the in-thread backend: the worker runs the
same executors against the same artifact store, and cancellation only
ever aborts work, it never alters a result.  The forkserver's state is
frozen when it starts, so each job ships what may have changed since:
the server's environment (``REPRO_FAULTS``, ``REPRO_ENGINE``, ``CC``
...), installed before anything reads it, and ``CACHE_DIR``, which is a
module global of the server; multiprocessing itself ships the working
directory and ``sys.path``.  The preload holds no native-kernel state,
so each job loads the kernel under its own store.

If the forkserver dies, its workers' exit codes read 255 while a worker
may still run: the monitor kills the worker's process group whatever
its exit code says, the job is retried as a :class:`WorkerCrashed`, and
the next start launches a fresh forkserver.  If the server itself dies
(even by SIGKILL, with no monitor left to kill anything), each worker
kills its own process group: a daemon thread waits on the job pipe,
whose only read end the server holds, and fires when the kernel
reports that end closed.  The forkserver would not tell: every worker
holds its liveness pipe open, so it outlives the server while any
worker runs.
"""

from __future__ import annotations

import _thread
import multiprocessing
import os
import select
import signal
import threading
import time
import traceback
from pathlib import Path

from repro.parallel.cancel import JobCancelled

#: seconds a cancelled worker gets to reach a cooperative checkpoint
#: before the monitor SIGKILLs its process group
DEFAULT_KILL_GRACE_S = 2.0

#: sentinel from :meth:`ProcessBackend._pump` when the pipe broke
_EOF = ("__eof__", None)


class WorkerError(RuntimeError):
    """An executor failed inside the worker process.

    ``str()`` is the worker's verbatim ``"Type: message"`` line, so the
    job's error field reads the same as it would from the in-thread
    backend.
    """


class WorkerCrashed(WorkerError):
    """The worker process died without reporting a result.

    Retryable: the fault may be transient (OOM kill, node pressure, an
    injected crash) — the scheduler re-runs the job in a fresh worker,
    with exponential backoff, up to its retry budget.
    """


class WorkerHung(WorkerCrashed):
    """The heartbeat watchdog killed a silent worker.

    A :class:`WorkerCrashed` subclass, so hangs share the crash retry
    policy: the slot is reclaimed immediately and the job gets a fresh
    worker instead of holding its slot forever.
    """


class DeadlineExceeded(WorkerError):
    """The job overran its wall-clock deadline and was killed.

    Deliberately *not* a :class:`WorkerCrashed`: exceeding a deadline is
    a property of the request, not a transient fault — retrying would
    just burn another deadline's worth of compute.  The job fails
    permanently with a distinct ``deadline exceeded`` error.
    """


def describe_exit(exitcode: int | None) -> str:
    """Human-readable worker exit: signal names for negative codes so
    operators can triage a crash from the job's error field alone."""
    if exitcode is None:
        return "no exit code"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        hint = (
            " — possible OOM or external kill"
            if -exitcode == signal.SIGKILL
            else ""
        )
        return f"killed by {name}{hint}"
    return f"exit code {exitcode}"


class _WorkerContext:
    """The executor context inside the worker process.

    Mirrors :class:`repro.service.scheduler.JobContext`: ``emit`` ships
    progress up the pipe, ``cancel`` is the shared token the engine's
    checkpoints poll.  The token's ``heartbeat`` hook is wired to a
    throttled pipe ping, so every engine checkpoint refreshes the
    monitor's watchdog clock.
    """

    def __init__(
        self,
        conn,
        cancel_token,
        heartbeat_every: float = 1.0,
        attempt: int = 1,
    ) -> None:
        self._conn = conn
        # pipe sends are length-prefixed and NOT safe under concurrent
        # writers: serialize them
        self._send_lock = threading.Lock()
        self._hb_every = max(0.05, heartbeat_every)
        self._hb_last = time.monotonic()
        self.cancel = cancel_token
        cancel_token.heartbeat = self._maybe_heartbeat
        self.attempt = attempt

    def _send(self, message) -> None:
        try:
            with self._send_lock:
                self._conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # monitor went away; keep computing (or die with it)

    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._hb_last >= self._hb_every:
            self._hb_last = now
            self._send(("hb", None))

    def emit(self, stage: str, detail: str = "") -> None:
        self._send(("event", stage, detail))

    def cancelled(self) -> bool:
        return self.cancel.is_set()

    def check_cancelled(self) -> None:
        self.cancel.check()


def _die_with_server(fd: int) -> None:
    """Worker daemon thread: SIGKILL the worker's process group once its
    server is gone.

    *fd* is a duplicate of the job pipe's write end.  The server holds
    the only read end, so the kernel reports an error on *fd* as soon as
    the server dies, however it died; a server that merely stops
    reading (it joins the worker first) never triggers it.
    """
    poller = select.poll()
    poller.register(fd, select.POLLERR)
    while not poller.poll():
        pass
    if os.getpgrp() == os.getpid():  # setsid made the worker the leader
        os.killpg(os.getpid(), signal.SIGKILL)
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(
    conn,
    cancel_event,
    factory,
    kind: str,
    params: dict,
    cache_dir: str | None,
    environ: dict[str, str],
    attempt: int = 1,
    heartbeat_every: float = 1.0,
) -> None:
    """Worker-process entry: run one job's executor, report, exit.

    Forked from the preloaded forkserver, so nothing of the server's
    state at job start leaks in except what arrives through the
    arguments: *factory* rebuilds the executor table (it must be a
    picklable module-level callable), *environ* is the server's
    environment, *cache_dir* re-points the runner's artifact store.
    *attempt* arms per-attempt fault triggers and *heartbeat_every*
    throttles the checkpoint heartbeat pings.
    """
    try:
        os.setsid()  # own process group: the kill backstop's killpg target
    except OSError:
        pass
    # threading.Thread.start would wait until the thread runs, about
    # 0.4 ms of every job in a freshly forked worker; the watcher needs
    # no handshake and, like a daemon thread, dies with the process
    _thread.start_new_thread(_die_with_server, (os.dup(conn.fileno()),))
    os.environ.clear()
    os.environ.update(environ)
    from repro.bench import runner
    from repro.parallel.cancel import CancelToken
    from repro.service import faults

    if cache_dir is not None:
        runner.CACHE_DIR = Path(cache_dir)
    faults.set_attempt(attempt)
    ctx = _WorkerContext(
        conn,
        CancelToken(cancel_event),
        heartbeat_every=heartbeat_every,
        attempt=attempt,
    )
    # first pipe message: resets the monitor's watchdog clock, so slow
    # interpreter/numpy imports are never mistaken for a hang
    ctx.emit("booted", f"worker pid {os.getpid()}, attempt {attempt}")
    try:
        faults.hit("worker.start")
        executors = factory()
        result = executors[kind](params, ctx)
    except JobCancelled:
        message = ("cancelled", None)
    except BaseException as exc:
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        message = ("failed", detail)
    else:
        message = ("done", result)
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


class ProcessBackend:
    """Runs each job in a worker process forked from the preloaded
    forkserver, and monitors it.

    One :meth:`run` call per job, invoked from the scheduler's job
    thread: it launches the worker, pumps progress events, watches for
    cancellation/shutdown, and translates the worker's fate into the
    same exceptions the in-thread backend produces — so the scheduler's
    state machine is backend-agnostic.
    """

    def __init__(
        self,
        kill_grace: float = DEFAULT_KILL_GRACE_S,
        heartbeat_timeout: float | None = None,
        max_job_seconds: float | None = None,
    ) -> None:
        if kill_grace <= 0:
            raise ValueError(f"kill_grace must be > 0, got {kill_grace}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {heartbeat_timeout}"
            )
        if max_job_seconds is not None and max_job_seconds <= 0:
            raise ValueError(
                f"max_job_seconds must be > 0 or None, got {max_job_seconds}"
            )
        self.kill_grace = kill_grace
        self.heartbeat_timeout = heartbeat_timeout
        self.max_job_seconds = max_job_seconds
        from multiprocessing import forkserver

        self._mp = multiprocessing.get_context("forkserver")
        self._mp.set_forkserver_preload(["repro.service.preload"])
        # preload beside the server start, not on the first job
        forkserver.ensure_running()

    def run(self, job, ctx, factory, attempt: int = 1):
        """Execute *job* in a worker process; return its result dict.

        Raises :class:`JobCancelled` when the job was cancelled (via a
        cooperative checkpoint or the kill backstop),
        :class:`WorkerError` when the executor raised,
        :class:`DeadlineExceeded` when the job overran its wall-clock
        budget, :class:`WorkerHung` when the heartbeat watchdog killed a
        silent worker, and :class:`WorkerCrashed` when the worker died
        without an answer.
        """
        from repro.bench import runner

        deadline_s = getattr(job, "deadline_s", None)
        if deadline_s is None:
            deadline_s = self.max_job_seconds
        heartbeat_every = (
            min(1.0, self.heartbeat_timeout / 4.0)
            if self.heartbeat_timeout
            else 1.0
        )
        mp = self._mp
        cancel_event = mp.Event()
        recv, send = mp.Pipe(duplex=False)
        process = mp.Process(
            target=_worker_main,
            args=(
                send, cancel_event, factory, job.kind, job.params,
                str(runner.CACHE_DIR), dict(os.environ),
                attempt, heartbeat_every,
            ),
            name=f"repro-worker-{job.id}-a{attempt}",
        )
        process.start()
        send.close()  # keep one writer so EOF means the worker is gone

        outcome = None
        kill_deadline = None
        killed = False
        hung = False
        deadline_hit = False
        started = time.monotonic()
        last_msg = started  # refreshed by every pipe message (events, hb)
        try:
            while outcome is None:
                now = time.monotonic()
                if kill_deadline is None and self._cancelling(job, ctx):
                    cancel_event.set()
                    kill_deadline = now + self.kill_grace
                    ctx.emit(
                        "cancelling",
                        f"cooperative checkpoint, worker kill in "
                        f"{self.kill_grace:.1f}s",
                    )
                if kill_deadline is None and not killed:
                    # watchdog passes run only until a kill is in motion
                    if deadline_s and now - started >= deadline_s:
                        deadline_hit = True
                        ctx.emit(
                            "deadline",
                            f"wall clock exceeded {deadline_s:.1f}s; "
                            f"killing worker",
                        )
                        self._kill(process)
                        killed = True
                    elif (
                        self.heartbeat_timeout
                        and now - last_msg >= self.heartbeat_timeout
                    ):
                        hung = True
                        ctx.emit(
                            "hung",
                            f"no heartbeat for "
                            f"{self.heartbeat_timeout:.1f}s; killing "
                            f"worker process group",
                        )
                        self._kill(process)
                        killed = True
                if (
                    kill_deadline is not None
                    and not killed
                    and now >= kill_deadline
                ):
                    self._kill(process)
                    killed = True
                if recv.poll(0.05):
                    last_msg = time.monotonic()
                    got = self._pump(recv, ctx)
                    if got is _EOF:
                        break
                    outcome = got
                elif not process.is_alive():
                    # dead worker: drain events still in the pipe buffer
                    while outcome is None and recv.poll():
                        got = self._pump(recv, ctx)
                        if got is _EOF:
                            break
                        outcome = got
                    break
        finally:
            if outcome is None:
                # also when it reads dead: a worker whose forkserver died
                # reads exit code 255 while it may still run
                self._kill(process)
            process.join(10.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(5.0)
            recv.close()

        if outcome is None:
            if self._cancelling(job, ctx):
                raise JobCancelled(
                    "worker process terminated after cancellation"
                )
            if deadline_hit:
                raise DeadlineExceeded(
                    f"deadline exceeded: {job.id} ran past "
                    f"{deadline_s:.1f}s wall clock and was killed"
                )
            if hung:
                raise WorkerHung(
                    f"worker process for {job.id} presumed hung: no "
                    f"heartbeat for {self.heartbeat_timeout:.1f}s; "
                    f"process group killed"
                )
            raise WorkerCrashed(
                f"worker process for {job.id} died unexpectedly "
                f"({describe_exit(process.exitcode)})"
            )
        tag, value = outcome
        if tag == "done":
            return value
        if tag == "cancelled":
            raise JobCancelled("cancelled at a cooperative checkpoint")
        raise WorkerError(value)

    @staticmethod
    def _cancelling(job, ctx) -> bool:
        return job.cancel_requested or ctx.scheduler._stop

    @staticmethod
    def _pump(recv, ctx):
        """Read one pipe message; forward events, return terminal ones
        (``_EOF`` for a broken pipe, ``None`` for a forwarded event)."""
        try:
            message = recv.recv()
        except (EOFError, OSError):
            return _EOF
        if message[0] == "hb":
            return None  # heartbeat: refreshes the watchdog clock only
        if message[0] == "event":
            ctx.emit(message[1], message[2])
            return None
        return (message[0], message[1])

    @staticmethod
    def _kill(process) -> None:
        """SIGKILL the worker's process group (engine forks included),
        whatever ``is_alive()`` says."""
        if process.pid is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                process.kill()
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass

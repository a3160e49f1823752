"""Async job scheduler for concurrent analysis requests.

Many clients asking the same sizing questions at once is the service's
whole workload, so the scheduler is built around three rules:

* **In-flight dedupe** — two requests with the same canonical signature
  (kind + params, priority excluded) share one :class:`Job` while it is
  queued or running; the engine runs once and every waiter gets the
  same result.  Completed jobs do not dedupe: a resubmission becomes a
  new job that resolves instantly through the artifact store.
* **Priority queue** — jobs wait in a max-priority heap (FIFO within a
  priority); a freed slot always goes to the highest-priority request.
* **Core budget** — at most ``max_concurrent`` jobs run at once, one
  per core unless the caller says otherwise.  Every job, a stressmark
  included, runs in one process.

Jobs emit progress events (``queued``/``deduped``/``started``/
``finished``/...) that the HTTP layer streams incrementally, and jobs
can be cancelled: queued jobs die immediately, and running jobs are
interrupted for real — the cancel token trips the engine's cooperative
checkpoints (:mod:`repro.parallel.cancel`), with the process backend's
worker kill as the backstop.

Two execution backends share the same state machine:

* ``backend="thread"`` (the default for a raw ``JobScheduler``) runs
  executors on scheduler threads inside this process — zero setup cost,
  in-process store counters, and arbitrary (even unpicklable) executor
  callables, which is what the test suite wants.  Cancellation of a
  running job is cooperative-only here.
* ``backend="process"`` (the default for the HTTP service) runs each
  job in its own **worker process**, forked from a preloaded forkserver
  (:class:`repro.service.workers.ProcessBackend`): an engine crash
  fails one job instead of the server, and cancellation has a
  worker-kill backstop.

Progress events, the core budget, in-flight dedupe, and bit-identical
results are backend-independent.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.parallel.cancel import CancelToken, JobCancelled

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states in which a job no longer dedupes and no longer changes
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: terminal jobs retained for status/result queries before the oldest
#: are evicted — bounds a long-lived server's memory
MAX_FINISHED_JOBS = 512

#: default retry budget for retryable failures (worker crashes and
#: watchdog kills): up to 1 + MAX_RETRIES attempts per job
DEFAULT_MAX_RETRIES = 2

#: exponential-backoff base and cap between retry attempts
DEFAULT_RETRY_BACKOFF_S = 0.5
DEFAULT_RETRY_BACKOFF_CAP_S = 30.0


class UnknownJobError(KeyError):
    """Lookup of a job id the scheduler does not know.

    A :class:`KeyError` subclass so callers may keep catching
    ``KeyError``, but distinct enough that the HTTP layer can map *this*
    to 404 without masking genuine server-side ``KeyError`` bugs as
    "not found".
    """


#: most GA islands one stressmark job may breed
MAX_ISLANDS = 64


def normalize_params(kind: str, params: dict) -> dict:
    """Resolve defaulted knobs before signing, so requests that spell
    the same engine run differently (omitted vs explicit defaults)
    dedupe onto one job instead of running twice.  Malformed knobs
    raise :class:`ValueError` here, at submit, not in the worker."""
    params = dict(params)
    if kind == "stressmark":
        from repro.core.stressmark import OBJECTIVES, resolve_island_knobs

        objective = params.setdefault("objective", "peak")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
            )
        for key in ("islands", "migration_interval"):
            value = params.get(key)
            if value is not None and type(value) is not int:
                raise ValueError(
                    f"{key} must be an integer, not {type(value).__name__}"
                )
        params["islands"], params["migration_interval"] = (
            resolve_island_knobs(
                params.get("islands"), params.get("migration_interval")
            )
        )
        if params["islands"] > MAX_ISLANDS:
            raise ValueError(
                f"islands must be <= {MAX_ISLANDS}, got {params['islands']}"
            )
    if kind in ("analyze", "profile"):
        from repro.sim.bitplane import ENGINES, default_engine

        engine = params.get("engine")
        if engine is None:
            # resolve the server-side default so "omitted" and "explicit
            # default" sign identically and dedupe onto one job
            params["engine"] = default_engine()
        elif engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
    if kind == "conformance":
        from repro.sim.bitplane import ENGINES

        engine = params.get("engine")
        if engine is not None and engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        params["engine"] = engine  # None signs as "all engines"
        benchmarks = params.get("benchmarks")
        if benchmarks is not None:
            if isinstance(benchmarks, str):
                benchmarks = [
                    name.strip() for name in benchmarks.split(",")
                    if name.strip()
                ]
            from repro.bench.suite import ALL_BENCHMARKS

            unknown = [n for n in benchmarks if n not in ALL_BENCHMARKS]
            if unknown:
                valid = ", ".join(sorted(ALL_BENCHMARKS))
                raise KeyError(
                    f"unknown benchmark"
                    f"{'s' if len(unknown) > 1 else ''} "
                    f"{', '.join(map(repr, unknown))}; "
                    f"valid names: {valid}"
                )
            params["benchmarks"] = list(benchmarks)
        else:
            params["benchmarks"] = None
        fuzz = params.get("fuzz", 0) or 0
        if not isinstance(fuzz, int) or fuzz < 0:
            raise ValueError("fuzz must be an integer >= 0")
        params["fuzz"] = fuzz
        params["seed"] = int(params.get("seed", 2017))
    if kind == "upload":
        from repro.service.gateway import normalize_upload_params

        params = normalize_upload_params(params)
    return params


def job_signature(kind: str, params: dict, tenant: str | None = None) -> str:
    """Canonical dedupe signature: kind + sorted params, priority excluded
    (a high-priority duplicate should join the in-flight run, not fork
    a second one).  The owning tenant is part of the signature — two
    tenants uploading identical source must get distinct jobs, or one
    would learn the other's job id through the dedup echo."""
    payload = {"kind": kind, "params": params}
    if tenant is not None:
        payload["tenant"] = tenant
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )


@dataclass
class Job:
    """One analysis request and its lifecycle."""

    id: str
    kind: str
    params: dict
    priority: int
    signature: str
    state: str = QUEUED
    result: dict | None = None
    error: str | None = None
    merged: int = 0  # duplicate submissions folded into this job
    attempt: int = 1  # current/last execution attempt (retries bump it)
    deadline_s: float | None = None  # per-job wall-clock budget
    deadline_hit: bool = False  # the thread backend's deadline timer fired
    recovered: bool = False  # requeued from the journal after a restart
    tenant: str | None = None  # owning tenant id (None on open servers)
    cancel_requested: bool = False
    #: trips the engine's cooperative checkpoints (and, on the process
    #: backend, arms the worker-kill backstop)
    cancel_token: CancelToken = field(
        default_factory=CancelToken, repr=False
    )
    created: float = field(default_factory=time.time)
    finished: float | None = None
    events: list[dict] = field(default_factory=list)
    done_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    @property
    def finished_ok(self) -> bool:
        return self.state == DONE

    def payload(self, include_result: bool = True) -> dict:
        """JSON view of the job for the HTTP layer."""
        data = {
            "job_id": self.id,
            "kind": self.kind,
            "params": self.params,
            "priority": self.priority,
            "state": self.state,
            "merged": self.merged,
            "attempt": self.attempt,
            "created": self.created,
            "finished": self.finished,
            "n_events": len(self.events),
        }
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        if self.recovered:
            data["recovered"] = True
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.error is not None:
            data["error"] = self.error
        if include_result and self.result is not None:
            data["result"] = self.result
        return data


@dataclass
class JobContext:
    """What an executor sees of its job: progress + cancel."""

    scheduler: "JobScheduler"
    job: Job

    def emit(self, stage: str, detail: str = "") -> None:
        self.scheduler._emit(self.job, stage, detail)

    def cancelled(self) -> bool:
        return self.job.cancel_requested

    @property
    def cancel(self) -> CancelToken:
        """The job's cancel token, for threading into engine loops."""
        return self.job.cancel_token

    def check_cancelled(self) -> None:
        self.job.cancel_token.check()


Executor = Callable[[dict, JobContext], dict]


class JobScheduler:
    """Priority scheduler multiplexing jobs over the host's cores.

    *max_concurrent* is the job slot count, the host's core count when
    ``None``.  *executors* maps job kinds to callables ``(params, ctx)
    -> result dict``; the default set runs the store-backed benchmark
    pipeline (see :func:`default_executors`).

    *backend* selects where executors run: ``"thread"`` (scheduler
    threads in this process, the default) or ``"process"`` (one
    worker process per job — crash isolation and a
    worker-kill cancellation backstop, see
    :mod:`repro.service.workers`).  The process backend takes an
    *executor_factory* — a picklable zero-argument callable rebuilding
    the executor table inside the worker — instead of an *executors*
    dict (whose callables would have to cross the process boundary);
    *kill_grace* is the seconds a cancelled worker gets to reach a
    cooperative checkpoint before its process group is SIGKILLed.
    """

    def __init__(
        self,
        max_concurrent: int | None = None,
        executors: dict[str, Executor] | None = None,
        max_finished_jobs: int = MAX_FINISHED_JOBS,
        backend: str = "thread",
        executor_factory: Callable[[], dict[str, Executor]] | None = None,
        kill_grace: float | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        retry_backoff_cap_s: float = DEFAULT_RETRY_BACKOFF_CAP_S,
        heartbeat_timeout: float | None = None,
        max_job_seconds: float | None = None,
        journal=None,
    ) -> None:
        if max_concurrent is None:
            max_concurrent = os.cpu_count() or 1
        if max_concurrent < 1:
            message = f"max_concurrent must be >= 1, got {max_concurrent}"
            raise ValueError(message)
        self.max_concurrent = max_concurrent
        if backend not in ("thread", "process"):
            message = f"unknown backend {backend!r}; valid: thread, process"
            raise ValueError(message)
        if executors is not None and backend == "process":
            raise ValueError(
                "the process backend needs a picklable executor_factory, "
                "not an executors dict"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.backend = backend
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self.heartbeat_timeout = heartbeat_timeout
        self.max_job_seconds = max_job_seconds
        self.journal = journal
        self._executor_factory = (
            executor_factory if executor_factory is not None
            else default_executors
        )
        self.executors = (
            dict(executors) if executors is not None
            else self._executor_factory()
        )
        self._backend_impl = None
        if backend == "process":
            from repro.service.workers import (
                DEFAULT_KILL_GRACE_S,
                ProcessBackend,
            )

            self._backend_impl = ProcessBackend(
                kill_grace=(
                    kill_grace if kill_grace is not None
                    else DEFAULT_KILL_GRACE_S
                ),
                heartbeat_timeout=heartbeat_timeout,
                max_job_seconds=max_job_seconds,
            )
        self.max_finished_jobs = max_finished_jobs
        self._cond = threading.Condition()
        self._queue: list[tuple[int, int, Job]] = []  # (-priority, seq, job)
        self._finished_order: list[str] = []  # eviction FIFO
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # signature -> queued/running job
        self._running = 0
        self._seq = 0
        self._stop = False
        self._workers: set[threading.Thread] = set()
        #: optional ``(job) -> None`` hook fired once per job as it
        #: reaches a terminal state (the gateway releases the owning
        #: tenant's concurrency quota here); called with the scheduler
        #: lock held, so it must not call back into the scheduler
        self.on_terminal: Callable[[Job], None] | None = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-scheduler", daemon=True
        )
        self._dispatcher.start()

    # -- public API -----------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
        recover_id: str | None = None,
        tenant: str | None = None,
    ) -> tuple[Job, bool]:
        """Enqueue a request; return ``(job, deduped)``.

        *deduped* is true when an identical request was already in
        flight and this submission joined it instead of creating a new
        job.  *deadline_s* is an optional per-job wall-clock budget
        (excluded from the dedupe signature; a duplicate's tighter
        deadline transfers to the shared job).  *recover_id* reuses a
        journaled job id on crash recovery so clients polling across a
        restart keep working.  *tenant* scopes the job (and its dedupe
        signature) to one authenticated principal; it survives journal
        replay.
        """
        if kind not in self.executors:
            known = ", ".join(sorted(self.executors))
            raise KeyError(f"unknown job kind {kind!r}; valid kinds: {known}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        params = normalize_params(kind, params or {})
        signature = job_signature(kind, params, tenant=tenant)
        with self._cond:
            if self._stop:
                raise RuntimeError("scheduler is shut down")
            existing = self._inflight.get(signature)
            if existing is not None and existing.state not in TERMINAL_STATES:
                existing.merged += 1
                self._emit_locked(
                    existing, "deduped",
                    f"identical request joined in-flight job ({existing.merged} merged)",
                )
                if deadline_s is not None and (
                    existing.deadline_s is None
                    or deadline_s < existing.deadline_s
                ):
                    existing.deadline_s = deadline_s
                if existing.state == QUEUED and priority > existing.priority:
                    # the joined waiter's urgency transfers to the shared
                    # job: re-push at the higher priority (the stale heap
                    # entry is skipped when popped — state check below)
                    existing.priority = priority
                    self._seq += 1
                    heapq.heappush(
                        self._queue, (-priority, self._seq, existing)
                    )
                    self._emit_locked(
                        existing, "priority_raised", f"to {priority}"
                    )
                    self._cond.notify_all()
                return existing, True
            if recover_id is not None:
                if recover_id in self._jobs:
                    raise ValueError(f"job id {recover_id!r} already exists")
                # keep fresh ids monotonic past every recovered one
                tail = recover_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._seq = max(self._seq, int(tail))
            self._seq += 1
            job = Job(
                id=recover_id if recover_id is not None else f"job-{self._seq:05d}",
                kind=kind,
                params=params,
                priority=priority,
                signature=signature,
                deadline_s=deadline_s,
                recovered=recover_id is not None,
                tenant=tenant,
            )
            self._jobs[job.id] = job
            self._inflight[signature] = job
            heapq.heappush(self._queue, (-priority, self._seq, job))
            self._emit_locked(job, "queued", f"priority {priority}")
            if self.journal is not None:
                self.journal.record_submit(
                    job.id, kind, params,
                    priority=priority, deadline_s=deadline_s, tenant=tenant,
                )
            self._cond.notify_all()
        return job, False

    def get(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        with self._cond:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (or timeout)."""
        return self.get(job_id).done_event.wait(timeout)

    def events_since(self, job_id: str, since: int = 0) -> list[dict]:
        """Progress events with sequence numbers >= *since* (the
        streaming contract: poll with the last ``next`` cursor)."""
        job = self.get(job_id)
        with self._cond:
            return [event for event in job.events if event["seq"] >= since]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs die immediately (returns True) —
        unless other submissions were deduped onto them, in which case
        one waiter is peeled off and the shared job survives (returns
        False).  Running jobs are cancelled asynchronously (returns
        False, the job reaches CANCELLED shortly after): the cancel
        token trips the engine's cooperative checkpoints, and on the
        process backend the worker is killed if it misses the grace
        window.  Terminal jobs are left untouched (returns False)."""
        job = self.get(job_id)
        with self._cond:
            if job.state == QUEUED:
                if job.merged > 0:
                    job.merged -= 1
                    self._emit_locked(
                        job, "cancel_merged",
                        f"one waiter cancelled, {job.merged + 1} remain",
                    )
                    return False
                job.cancel_requested = True
                job.cancel_token.set()
                self._finish_locked(job, CANCELLED, error="cancelled while queued")
                return True
            if job.state == RUNNING:
                job.cancel_requested = True
                job.cancel_token.set()
                detail = (
                    "cooperative checkpoint + worker kill backstop"
                    if self._backend_impl is not None
                    else "cooperative checkpoints only (thread backend)"
                )
                self._emit_locked(job, "cancel_requested", detail)
                return False
            return False

    def shutdown(self, wait: bool = True, timeout: float | None = 10.0) -> None:
        """Stop dispatching, cancel everything queued, join workers.

        Running jobs get their cancel token set so engine checkpoints
        (and, on the process backend, the worker monitors) wind down
        instead of running to completion unattended."""
        with self._cond:
            self._stop = True
            for _, _, job in self._queue:
                if job.state == QUEUED:
                    self._finish_locked(
                        job, CANCELLED, error="scheduler shut down"
                    )
            self._queue.clear()
            for job in self._jobs.values():
                if job.state == RUNNING:
                    job.cancel_token.set()
            self._cond.notify_all()
            workers = list(self._workers)
        self._dispatcher.join(timeout)
        if wait:
            for worker in workers:
                worker.join(timeout)

    def counts(self) -> dict[str, int]:
        with self._cond:
            counts = {
                QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, CANCELLED: 0
            }
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def config(self) -> dict:
        """Static supervision configuration, surfaced by ``/healthz``."""
        kill_grace = (
            self._backend_impl.kill_grace
            if self._backend_impl is not None else None
        )
        return {
            "backend": self.backend,
            "max_concurrent": self.max_concurrent,
            "max_retries": self.max_retries,
            "retry_backoff_s": self.retry_backoff_s,
            "heartbeat_timeout_s": self.heartbeat_timeout,
            "max_job_seconds": self.max_job_seconds,
            "kill_grace_s": kill_grace,
            # file name only: /healthz may be reachable unauthenticated
            # and must not leak the store's filesystem layout
            "journal": (
                self.journal.path.name if self.journal is not None else None
            ),
        }

    # -- dispatch -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not (
                    self._queue and self._running < self.max_concurrent
                ):
                    self._cond.wait()
                if self._stop:
                    return
                _, _, job = heapq.heappop(self._queue)
                if job.state != QUEUED:  # cancelled while waiting
                    continue
                job.state = RUNNING
                self._running += 1
                self._emit_locked(
                    job, "started", f"slot {self._running}/{self.max_concurrent}"
                )
                if self.journal is not None:
                    self.journal.record_start(job.id, attempt=job.attempt)
                worker = threading.Thread(
                    target=self._run_job, args=(job,),
                    name=f"repro-{job.id}", daemon=True,
                )
                self._workers.add(worker)
            worker.start()

    def _run_job(self, job: Job) -> None:
        from repro.service.workers import WorkerCrashed, WorkerError

        ctx = JobContext(self, job)
        state, result, error = DONE, None, None
        try:
            while True:
                try:
                    if self._backend_impl is not None:
                        result = self._backend_impl.run(
                            job, ctx, self._executor_factory,
                            attempt=job.attempt,
                        )
                    else:
                        result = self._run_in_thread(job, ctx)
                    state = DONE
                except JobCancelled:
                    if job.deadline_hit:
                        # the thread backend's deadline timer trips the
                        # cancel token; report it as the distinct
                        # permanent failure, not a cancellation
                        state = FAILED
                        error = (
                            f"deadline exceeded: {job.id} ran past "
                            f"{job.deadline_s or self.max_job_seconds:.1f}s "
                            f"wall clock"
                        )
                    else:
                        state, error = CANCELLED, "cancelled while running"
                except WorkerCrashed as exc:
                    # crash or watchdog kill: retryable with backoff
                    if self._should_retry(job):
                        delay = self.retry_delay(job.id, job.attempt)
                        self._emit(
                            job, "retrying",
                            f"attempt {job.attempt} failed ({exc}); "
                            f"attempt {job.attempt + 1}/"
                            f"{self.max_retries + 1} in {delay:.2f}s",
                        )
                        if self.journal is not None:
                            self.journal.record_retry(
                                job.id, attempt=job.attempt + 1
                            )
                        if self._backoff_wait(job, delay):
                            job.attempt += 1
                            continue
                        state, error = (
                            CANCELLED, "cancelled during retry backoff"
                        )
                    else:
                        state = FAILED
                        error = str(exc)
                        if job.attempt > 1:
                            error += f" (after {job.attempt} attempts)"
                except WorkerError as exc:
                    # executor exceptions and deadline kills are
                    # permanent: the worker formatted the failure verbatim
                    state, error = FAILED, str(exc)
                except BaseException as exc:
                    # EVERY other failure — Exception or BaseException
                    # (SystemExit, KeyboardInterrupt, MemoryError) — fails
                    # the job; the slot release lives in the finally
                    # below, so no raise can strand ``_running``.
                    state = FAILED
                    error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                break
        finally:
            with self._cond:
                self._running -= 1
                self._workers.discard(threading.current_thread())
                if job.state not in TERMINAL_STATES:
                    self._finish_locked(job, state, result=result, error=error)
                self._cond.notify_all()

    def _run_in_thread(self, job: Job, ctx: JobContext) -> dict:
        """Thread-backend execution with a cooperative deadline: a timer
        trips the job's cancel token at the wall-clock budget (the
        process backend enforces deadlines with a worker kill instead)."""
        deadline_s = (
            job.deadline_s if job.deadline_s is not None
            else self.max_job_seconds
        )
        timer = None
        if deadline_s:
            def _trip() -> None:
                job.deadline_hit = True
                job.cancel_token.set()

            timer = threading.Timer(deadline_s, _trip)
            timer.daemon = True
            timer.start()
        try:
            return self.executors[job.kind](job.params, ctx)
        finally:
            if timer is not None:
                timer.cancel()

    def _should_retry(self, job: Job) -> bool:
        return (
            job.attempt <= self.max_retries
            and not job.cancel_requested
            and not self._stop
        )

    def retry_delay(self, job_id: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter: the jitter is
        a pure function of (job id, attempt), so chaos tests and
        journal replays see identical schedules."""
        base = min(
            self.retry_backoff_cap_s,
            self.retry_backoff_s * (2 ** (attempt - 1)),
        )
        digest = hashlib.blake2b(
            f"{job_id}:{attempt}".encode(), digest_size=4
        ).hexdigest()
        jitter = (int(digest, 16) % 1000) / 1000.0 * 0.25
        return base * (1.0 + jitter)

    def _backoff_wait(self, job: Job, delay: float) -> bool:
        """Sleep out a retry backoff, abandoning it immediately on
        cancel or shutdown; True when the full delay elapsed."""
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            if job.cancel_requested or self._stop:
                return False
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
        return not (job.cancel_requested or self._stop)

    # -- locked helpers -------------------------------------------------

    def _emit(self, job: Job, stage: str, detail: str = "") -> None:
        with self._cond:
            self._emit_locked(job, stage, detail)

    def _emit_locked(self, job: Job, stage: str, detail: str) -> None:
        job.events.append(
            {
                "seq": len(job.events),
                "ts": time.time(),
                "stage": stage,
                "detail": detail,
            }
        )

    def _finish_locked(
        self,
        job: Job,
        state: str,
        result: dict | None = None,
        error: str | None = None,
    ) -> None:
        # result/error land before the state flips terminal: the HTTP
        # layer reads jobs without the lock, and a terminal state with a
        # still-missing result would be misreported as cancelled/failed
        job.result = result
        job.error = error
        job.finished = time.time()
        job.state = state
        self._emit_locked(job, "finished" if state == DONE else state, error or "")
        if self.journal is not None and not (
            self._stop and state == CANCELLED
        ):
            # graceful shutdown leaves no terminal record: to the journal
            # a drain looks like a crash, so interrupted work is requeued
            # on the next start instead of silently dropped
            self.journal.record_terminal(job.id, state, error=error)
        if self._inflight.get(job.signature) is job:
            del self._inflight[job.signature]
        if self.on_terminal is not None:
            try:
                self.on_terminal(job)
            except Exception:
                pass  # quota bookkeeping must never fail a job transition
        job.done_event.set()
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.max_finished_jobs:
            stale_id = self._finished_order.pop(0)
            stale = self._jobs.get(stale_id)
            if stale is not None and stale.state in TERMINAL_STATES:
                del self._jobs[stale_id]


# ----------------------------------------------------------------------
# Default executors: the store-backed benchmark pipeline
# ----------------------------------------------------------------------

def _analysis_payload(result) -> dict:
    """JSON result for one benchmark's X-based analysis
    (:class:`repro.bench.runner.BenchmarkResults`)."""
    return {
        "kind": "analysis",
        "benchmark": result.name,
        "peak_power_mw": result.peak_power_mw,
        "peak_energy_pj": result.peak_energy_pj,
        "npe_pj_per_cycle": result.npe_pj_per_cycle,
        "path_cycles": result.path_cycles,
        "n_segments": result.n_segments,
        "avg_peak_trace_mw": result.avg_peak_trace_mw,
    }


def _require_benchmark(params: dict) -> str:
    from repro.bench.suite import ALL_BENCHMARKS

    name = params.get("benchmark")
    if name not in ALL_BENCHMARKS:
        valid = ", ".join(sorted(ALL_BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; valid names: {valid}")
    return name


def run_analyze_job(params: dict, ctx: JobContext) -> dict:
    """Input-independent peak power/energy bound for one benchmark,
    resolved through the artifact store (cold runs fill it, warm runs
    are pure lookups)."""
    from repro.bench import runner

    name = _require_benchmark(params)
    engine = params.get("engine")
    ctx.emit("resolve", f"x_based({name!r}), engine={engine}")
    result = runner.x_based(
        name, cancel=getattr(ctx, "cancel", None), engine=engine
    )
    return _analysis_payload(result)


def run_profile_job(params: dict, ctx: JobContext) -> dict:
    """Guardbanded input-profiling baseline for one benchmark."""
    from repro.bench import runner
    from repro.core.baselines import GUARDBAND

    name = _require_benchmark(params)
    engine = params.get("engine")
    ctx.emit("resolve", f"profiling({name!r}), engine={engine}")
    profile = runner.profiling(
        name, cancel=getattr(ctx, "cancel", None), engine=engine
    )
    return {
        "kind": "profiling",
        "benchmark": name,
        "n_input_sets": len(profile.runs),
        "observed_peak_power_mw": profile.observed_peak_power_mw,
        "guardbanded_peak_power_mw": profile.guardbanded_peak_power_mw,
        "guardband": GUARDBAND,
    }


def run_stressmark_job(params: dict, ctx: JobContext) -> dict:
    """GA stressmark for this core (islands knobs reachable per job)."""
    from repro.bench import runner

    objective = params.get("objective", "peak")
    ctx.emit("resolve", f"stressmark({objective!r})")
    mark = runner.stressmark(
        objective,
        islands=params.get("islands"),
        migration_interval=params.get("migration_interval"),
        cancel=getattr(ctx, "cancel", None),
    )
    return {
        "kind": "stressmark",
        "objective": objective,
        "peak_power_mw": mark.peak_power_mw,
        "avg_power_mw": mark.avg_power_mw,
        "source": mark.source,
    }


def run_conformance_job(params: dict, ctx: JobContext) -> dict:
    """Lock-step ISS-vs-gate conformance: benchmark suite and/or fuzz
    campaign.  Divergence reproducers land in the artifact store so a
    failed fuzz job leaves a durable, replayable seed behind."""
    from repro.bench import runner
    from repro.verify import run_conformance

    benchmarks = params.get("benchmarks")
    fuzz = params.get("fuzz", 0)
    seed = params.get("seed", 2017)
    engine = params.get("engine")
    engines = (engine,) if engine else None
    ctx.emit(
        "resolve",
        f"conformance(benchmarks={benchmarks}, fuzz={fuzz}, "
        f"seed={seed}, engines={engines or 'all'})",
    )
    report = run_conformance(
        benchmarks=benchmarks,
        fuzz_instructions=fuzz,
        seed=seed,
        engines=engines,
        emit=ctx.emit,
        cancel=getattr(ctx, "cancel", None),
    )
    payload = report.payload()
    if report.divergences:
        store = runner.artifact_store()
        keys = []
        for divergence in report.divergences:
            key = (
                f"divergence_{divergence.program_name}"
                f"_{divergence.engine}"
                + (
                    f"_seed{divergence.seed}"
                    if divergence.seed is not None else ""
                )
            )
            store.put(key, divergence.payload())
            keys.append(key)
        payload["divergence_artifacts"] = keys
        ctx.emit("divergence", f"stored reproducers: {', '.join(keys)}")
    return payload


def default_executors() -> dict[str, Executor]:
    # the upload executor lives in the gateway module; imported lazily so
    # a bare scheduler import stays cheap, referenced as a module-level
    # function so the table stays picklable for the process backend
    from repro.service.gateway import run_upload_job

    return {
        "analyze": run_analyze_job,
        "profile": run_profile_job,
        "stressmark": run_stressmark_job,
        "conformance": run_conformance_job,
        "upload": run_upload_job,
    }

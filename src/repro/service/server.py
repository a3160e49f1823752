"""Stdlib-only HTTP/JSON API over the scheduler and the artifact store.

Endpoints (all JSON)::

    GET    /healthz                      liveness + job counts
    GET    /v1/benchmarks                the Table 4.1 registry
    POST   /v1/jobs                      submit {kind, benchmark?, priority?, ...}
    GET    /v1/jobs                      list jobs (results elided)
    GET    /v1/jobs/<id>                 one job, result included when done
    GET    /v1/jobs/<id>/result?wait=1&timeout=N   block until terminal
    GET    /v1/jobs/<id>/events?since=N  incremental progress stream
    DELETE /v1/jobs/<id>                 cancel (queued: immediate)
    POST   /v1/programs                  upload MSP430 assembly -> analyze job
    GET    /v1/programs/<pid>            the stored bound for an upload
    GET    /v1/store/stats               artifact-store stats + counters
    POST   /v1/store/gc                  {"max_mb": N} -> gc report

``repro serve`` wraps :func:`serve`; :mod:`repro.service.client` is the
matching client.  The server is a ``ThreadingHTTPServer`` so a blocked
``result?wait=1`` poll never starves other clients; the actual engine
concurrency is owned by the scheduler's slot budget, not by HTTP
threads.

**Multi-tenancy.**  With a keyring (``repro serve --keyring``), every
endpoint except ``/healthz`` requires an API key (``X-API-Key`` or
``Authorization: Bearer``); jobs are namespaced per tenant (a foreign
job id answers 404, never 403 — existence is not leaked), expensive
POSTs are token-bucket rate limited and concurrency-quota'd (429 with
an honest ``Retry-After``), and the store-maintenance endpoints are
admin-only.  Without a keyring the server behaves exactly as before:
fully open, no tenant bookkeeping.

**Error envelope.**  Every non-2xx body is ``{"error": <human
message>, "code": <machine code>, ...}``.  Unexpected failures answer
a fixed ``{"error": "internal server error", "code": "internal"}`` —
exception text, tracebacks, and filesystem paths never reach a
response body.
"""

from __future__ import annotations

import json
import signal
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.service.journal import JOURNAL_NAME, JobJournal, recover_jobs
from repro.service.scheduler import (
    CANCELLED,
    FAILED,
    QUEUED,
    TERMINAL_STATES,
    JobScheduler,
    UnknownJobError,
)
from repro.tenancy import JobQuota, Keyring, RateLimiter

#: default TCP port for ``repro serve`` / ``repro submit``
DEFAULT_PORT = 8437

#: cap on a single blocking result wait; clients poll past it
MAX_WAIT_S = 120.0

#: global request-body cap (any endpoint): bigger uploads are rejected
#: before the body is read, so a hostile payload can't balloon memory
MAX_BODY_BYTES = 1024 * 1024

#: default fallback error codes per HTTP status (call sites may override)
_DEFAULT_CODES = {
    400: "invalid_request",
    401: "unauthorized",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "too_large",
    422: "unprocessable",
    429: "rate_limited",
    500: "internal",
}


class AnalysisService:
    """The server-side bundle: one scheduler + the artifact store.

    When no *scheduler* is supplied, one is built on the **process**
    execution backend: each job runs in its own worker process, so an
    engine crash fails that one job (the server keeps serving) and
    DELETE on a running job actually stops it.  Tests that need
    in-process executors pass their own ``JobScheduler(backend="thread")``.

    *keyring* (a :class:`repro.tenancy.Keyring` or a path to one)
    switches on multi-tenancy: authn, per-tenant rate limits and job
    quotas, and tenant-namespaced jobs/artifacts.  ``None`` keeps the
    server fully open.
    """

    def __init__(
        self,
        scheduler: JobScheduler | None = None,
        store=None,
        max_jobs: int | None = None,
        recover: bool = True,
        heartbeat_timeout: float | None = None,
        max_job_seconds: float | None = None,
        max_retries: int | None = None,
        keyring: Keyring | str | Path | None = None,
    ) -> None:
        self.started = time.time()
        self.recovered: dict = {"requeued": 0, "merged": 0, "skipped": 0}
        self.keyring = (
            keyring if keyring is None or isinstance(keyring, Keyring)
            else Keyring(keyring)
        )
        self.rate_limiter = RateLimiter()
        self.job_quota = JobQuota()
        if scheduler is not None:
            self.scheduler = scheduler
            self._store = store
            self._wire_quota_release()
            return
        journal = None
        report = None
        if recover:
            from repro.bench import runner

            journal = JobJournal(Path(runner.CACHE_DIR) / JOURNAL_NAME)
            # replay BEFORE the scheduler exists, compact, then let the
            # resubmissions below re-append fresh submit records
            report = journal.replay()
            journal.compact()
        kwargs: dict = {}
        if max_retries is not None:
            kwargs["max_retries"] = max_retries
        self.scheduler = JobScheduler(
            max_concurrent=max_jobs,
            backend="process",
            heartbeat_timeout=heartbeat_timeout,
            max_job_seconds=max_job_seconds,
            journal=journal,
            **kwargs,
        )
        self._store = store
        self._wire_quota_release()
        if report is not None:
            self.recovered = recover_jobs(self.scheduler, report)
            for job in self.scheduler.jobs():
                if job.tenant is not None and job.state not in TERMINAL_STATES:
                    self.job_quota.note(job.tenant)

    def _wire_quota_release(self) -> None:
        """Release the owning tenant's concurrency-quota slot whenever
        one of its jobs reaches a terminal state."""

        def _on_terminal(job) -> None:
            if job.tenant is not None:
                self.job_quota.release(job.tenant)

        self.scheduler.on_terminal = _on_terminal

    @property
    def store(self):
        """The artifact store (late-bound to the runner's active root,
        so a relocated cache dir is picked up without a restart)."""
        if self._store is not None:
            return self._store
        from repro.bench import runner

        return runner.artifact_store()

    def close(self) -> None:
        self.scheduler.shutdown()


class _HTTPError(Exception):
    """One structured error response: status + envelope + headers.

    The envelope always carries a machine-readable ``code`` (defaulted
    per status, overridable per call site) next to the human message.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str | None = None,
        headers: dict[str, str] | None = None,
        **extra,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})
        self.payload = {
            "error": message,
            "code": code or _DEFAULT_CODES.get(status, "error"),
            **extra,
        }


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------

    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def _number(query: dict, key: str, default: float) -> float:
        """Parse a numeric query parameter; malformed input is the
        client's fault (400), not an internal error."""
        raw = query.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise _HTTPError(400, f"{key} must be a number, got {raw!r}") from None

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            # reject before reading; the unread body makes the
            # connection unreusable, so close it after responding
            self.close_connection = True
            raise _HTTPError(
                413,
                f"request body is {length} bytes; the limit is "
                f"{MAX_BODY_BYTES}",
                limit_bytes=MAX_BODY_BYTES,
            )
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            raise _HTTPError(400, "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body

    # -- authn/limits ---------------------------------------------------

    def _presented_key(self) -> str | None:
        key = self.headers.get("X-API-Key")
        if key:
            return key.strip()
        auth = self.headers.get("Authorization") or ""
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    def _authenticate(self, parts: list[str]):
        """Resolve the requesting tenant, or raise 401.

        ``None`` on open servers (no keyring).  ``/healthz`` stays open
        even under tenancy — load balancers don't carry API keys.
        """
        keyring = self.service.keyring
        if keyring is None or parts[:1] == ["healthz"]:
            return None
        tenant = keyring.authenticate(self._presented_key())
        if tenant is None:
            raise _HTTPError(
                401,
                "a valid API key is required "
                "(X-API-Key or Authorization: Bearer)",
                headers={"WWW-Authenticate": "Bearer"},
            )
        return tenant

    def _check_rate(self, tenant) -> None:
        """Token-bucket admission for expensive POSTs (429 on refusal)."""
        if tenant is None:
            return
        decision = self.service.rate_limiter.check(tenant.id, tenant.quotas)
        if not decision.allowed:
            raise _HTTPError(
                429,
                f"rate limit exceeded; retry in {decision.retry_after_s}s",
                code="rate_limited",
                headers={"Retry-After": str(decision.retry_after_s)},
                retry_after_s=decision.retry_after_s,
            )

    def _acquire_quota(self, tenant) -> None:
        """Concurrent-job quota slot for one submission (429 on refusal)."""
        if tenant is None:
            return
        decision = self.service.job_quota.try_acquire(
            tenant.id, tenant.quotas
        )
        if not decision.allowed:
            raise _HTTPError(
                429,
                f"concurrent-job quota "
                f"({tenant.quotas.max_concurrent_jobs}) exhausted; "
                f"retry in {decision.retry_after_s}s",
                code="quota_exceeded",
                headers={"Retry-After": str(decision.retry_after_s)},
                retry_after_s=decision.retry_after_s,
            )

    def _release_quota(self, tenant) -> None:
        if tenant is not None:
            self.service.job_quota.release(tenant.id)

    def _visible_job(self, job, tenant) -> bool:
        """Tenant isolation: a job is visible to its owner, to admins,
        and to everyone on an open server."""
        if tenant is None or tenant.admin:
            return True
        return job.tenant == tenant.id

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        # Resolve the response first, then write it exactly once: the
        # write is guarded against the client hanging up mid-response
        # (long polls get abandoned all the time), which must not dump
        # tracebacks from handler threads or re-write to a dead socket.
        headers: dict[str, str] = {}
        try:
            tenant = self._authenticate(parts)
            payload, status = self._route(method, parts, query, tenant)
        except _HTTPError as err:
            payload, status, headers = err.payload, err.status, err.headers
        except UnknownJobError as err:
            # only the scheduler's "no such job" is a 404; any other
            # KeyError is a genuine server bug and surfaces as a 500
            payload, status = (
                {"error": str(err).strip("'\""), "code": "not_found"},
                404,
            )
        except Exception:  # pragma: no cover - defensive surface
            # deliberately opaque: exception text can carry store paths,
            # tenant ids, or other internals that must not leak
            payload, status = (
                {"error": "internal server error", "code": "internal"},
                500,
            )
        try:
            self._send_json(payload, status, headers=headers)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.close_connection = True

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- routes ---------------------------------------------------------

    def _route(
        self, method: str, parts: list[str], query: dict, tenant=None
    ) -> tuple[dict, int]:
        scheduler = self.service.scheduler
        if method == "GET" and parts == ["healthz"]:
            counts = scheduler.counts()
            return {
                "ok": True,
                "jobs": counts,
                "queue_depth": counts[QUEUED],
                "backend": scheduler.backend,
                "max_concurrent": scheduler.max_concurrent,
                "uptime_s": round(time.time() - self.service.started, 3),
                "recovered": self.service.recovered,
                "tenancy": self.service.keyring is not None,
                "config": scheduler.config(),
            }, 200
        if parts[:1] != ["v1"]:
            raise _HTTPError(404, f"no such endpoint: {self.path}")
        parts = parts[1:]

        if method == "GET" and parts == ["benchmarks"]:
            from repro.bench.suite import ALL_BENCHMARKS

            return {
                "benchmarks": [
                    {
                        "name": b.name,
                        "category": b.category,
                        "description": b.description,
                    }
                    for b in ALL_BENCHMARKS.values()
                ]
            }, 200

        if parts[:1] == ["jobs"]:
            return self._route_jobs(method, parts[1:], query, tenant)
        if parts[:1] == ["programs"]:
            return self._route_programs(method, parts[1:], tenant)
        if parts[:1] == ["store"]:
            if tenant is not None and not tenant.admin:
                raise _HTTPError(
                    403, "store maintenance requires an admin key"
                )
            return self._route_store(method, parts[1:])
        raise _HTTPError(404, f"no such endpoint: {self.path}")

    def _route_jobs(
        self, method: str, parts: list[str], query: dict, tenant=None
    ) -> tuple[dict, int]:
        scheduler = self.service.scheduler
        if method == "POST" and not parts:
            from repro.service.scheduler import _require_benchmark

            body = self._read_body()
            kind = body.pop("kind", "analyze")
            priority = body.pop("priority", 0)
            deadline_s = body.pop("deadline_s", None)
            if not isinstance(priority, int):
                raise _HTTPError(400, "priority must be an integer")
            if deadline_s is not None:
                if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
                    raise _HTTPError(400, "deadline_s must be a number > 0")
                deadline_s = float(deadline_s)
            if kind == "upload":
                raise _HTTPError(
                    400,
                    "uploads go through POST /v1/programs "
                    "(size caps and source validation live there)",
                )
            self._check_rate(tenant)
            self._acquire_quota(tenant)
            try:
                if kind in ("analyze", "profile"):
                    _require_benchmark(body)  # fail fast: 400, not a job
                job, deduped = scheduler.submit(
                    kind, body, priority=priority, deadline_s=deadline_s,
                    tenant=tenant.id if tenant is not None else None,
                )
            except (KeyError, ValueError) as err:
                # unknown kind / unknown benchmark / invalid knob values:
                # client error, with the valid names in the message
                self._release_quota(tenant)
                raise _HTTPError(400, str(err).strip("'\"")) from None
            except BaseException:
                self._release_quota(tenant)
                raise
            if deduped:
                # joining an in-flight job holds no new scheduler slot
                self._release_quota(tenant)
            return {
                "job_id": job.id,
                "state": job.state,
                "deduped": deduped,
            }, 202
        if method == "GET" and not parts:
            return {
                "jobs": [
                    job.payload(include_result=False)
                    for job in scheduler.jobs()
                    if self._visible_job(job, tenant)
                ]
            }, 200
        if not parts:
            raise _HTTPError(405, f"{method} not allowed on /v1/jobs")

        job = scheduler.get(parts[0])  # UnknownJobError -> 404
        if not self._visible_job(job, tenant):
            # a foreign job id answers exactly like a nonexistent one:
            # 403 would confirm the id exists across the tenant boundary
            raise _HTTPError(404, f"unknown job {parts[0]!r}")
        if method == "GET" and len(parts) == 1:
            return job.payload(), 200
        if method == "DELETE" and len(parts) == 1:
            cancelled = scheduler.cancel(job.id)
            return {
                "job_id": job.id,
                "state": job.state,
                "cancelled": cancelled,
                "cancel_requested": job.cancel_requested,
            }, 200
        if method == "GET" and parts[1:] == ["result"]:
            if query.get("wait", "1") not in ("0", "false"):
                timeout = min(
                    self._number(query, "timeout", 30.0), MAX_WAIT_S
                )
                scheduler.wait(job.id, timeout=timeout)
            if job.state not in TERMINAL_STATES:
                return job.payload(include_result=False), 202
            if job.state == FAILED:
                from repro.service.gateway import job_error_code

                code = (
                    job_error_code(job.error) if job.kind == "upload"
                    else None
                )
                if code is not None:
                    # the uploaded program itself is at fault (bad
                    # assembly, tripped cycle budget, ...): that's the
                    # client's 422, not a server failure
                    raise _HTTPError(
                        422, f"job {job.id} failed: {job.error}",
                        code=code, job_id=job.id, state=FAILED,
                    )
                raise _HTTPError(
                    500, f"job {job.id} failed: {job.error}",
                    code="job_failed", job_id=job.id, state=FAILED,
                )
            if job.state == CANCELLED or job.result is None:
                raise _HTTPError(
                    409, f"job {job.id} was cancelled",
                    code="cancelled", job_id=job.id, state=CANCELLED,
                )
            return job.payload(), 200
        if method == "GET" and parts[1:] == ["events"]:
            since = int(self._number(query, "since", 0))
            events = scheduler.events_since(job.id, since)
            return {
                "job_id": job.id,
                "state": job.state,
                "events": events,
                "next": events[-1]["seq"] + 1 if events else since,
            }, 200
        raise _HTTPError(404, f"no such endpoint: {self.path}")

    def _route_programs(
        self, method: str, parts: list[str], tenant=None
    ) -> tuple[dict, int]:
        from repro.service import gateway

        scheduler = self.service.scheduler
        tenant_id = tenant.id if tenant is not None else None
        if method == "POST" and not parts:
            self._check_rate(tenant)
            body = self._read_body()
            max_source = (
                tenant.quotas.max_source_bytes if tenant is not None
                else gateway.MAX_SOURCE_BYTES_CAP
            )
            try:
                params = gateway.validate_upload(body, max_source)
            except gateway.UploadError as err:
                # rejected before submit: no scheduler or journal residue
                raise _HTTPError(
                    err.status, str(err), code=err.code, **err.extra
                ) from None
            if tenant is not None:
                params["tenant"] = tenant.id
                params["ttl_s"] = tenant.quotas.result_ttl_s
                deadline_s = tenant.quotas.max_job_seconds
            else:
                from repro.tenancy.keyring import DEFAULT_MAX_JOB_SECONDS

                # open servers still budget uploads: arbitrary source
                # must not occupy a slot forever
                deadline_s = DEFAULT_MAX_JOB_SECONDS
            self._acquire_quota(tenant)
            try:
                job, deduped = scheduler.submit(
                    "upload", params, deadline_s=deadline_s,
                    tenant=tenant_id,
                )
            except (KeyError, ValueError) as err:
                self._release_quota(tenant)
                raise _HTTPError(400, str(err).strip("'\"")) from None
            except BaseException:
                self._release_quota(tenant)
                raise
            if deduped:
                self._release_quota(tenant)
            return {
                "job_id": job.id,
                "program_id": params["program_id"],
                "state": job.state,
                "deduped": deduped,
            }, 202
        if method == "GET" and len(parts) == 1:
            key = gateway.store_key(tenant_id, parts[0])
            try:
                payload = self.service.store.get(key)
            except KeyError:
                raise _HTTPError(
                    404,
                    f"no stored result for program {parts[0]!r} "
                    "(never analyzed, or expired and collected)",
                ) from None
            if not isinstance(payload, dict):
                raise _HTTPError(
                    404, f"no stored result for program {parts[0]!r}"
                )
            return payload, 200
        raise _HTTPError(404, f"no such endpoint: {self.path}")

    def _route_store(self, method: str, parts: list[str]) -> tuple[dict, int]:
        store = self.service.store
        if method == "GET" and parts == ["stats"]:
            return store.stats().to_dict(), 200
        if method == "POST" and parts == ["gc"]:
            body = self._read_body()
            max_mb = body.get("max_mb")
            if max_mb is not None and not isinstance(max_mb, (int, float)):
                raise _HTTPError(400, "max_mb must be a number")
            return store.gc(max_mb=max_mb).to_dict(), 200
        raise _HTTPError(404, f"no such endpoint: {self.path}")


def make_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to *host*:*port* (0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    max_jobs: int | None = None,
    verbose: bool = True,
    recover: bool = True,
    heartbeat_timeout: float | None = None,
    max_job_seconds: float | None = None,
    max_retries: int | None = None,
    keyring: str | Path | None = None,
) -> int:
    """Run the analysis service until interrupted (the CLI entry).

    SIGTERM and Ctrl-C both take the graceful path: the scheduler's
    ``shutdown`` cancels running workers and — because a graceful drain
    writes no terminal journal records — queued and running jobs are
    requeued by the next ``repro serve`` in the same store directory.
    """
    service = AnalysisService(
        max_jobs=max_jobs,
        recover=recover,
        heartbeat_timeout=heartbeat_timeout,
        max_job_seconds=max_job_seconds,
        max_retries=max_retries,
        keyring=keyring,
    )
    server = make_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    tenancy = (
        f"{len(service.keyring.tenants())}-tenant keyring"
        if service.keyring is not None else "open (no keyring)"
    )
    print(
        f"repro service on http://{bound_host}:{bound_port} "
        f"({service.scheduler.max_concurrent} job slots, "
        f"{service.scheduler.backend} backend, {tenancy}, "
        f"store {service.store.root})",
        flush=True,
    )
    recovered = service.recovered
    if recovered.get("requeued") or recovered.get("merged"):
        print(
            f"recovered {recovered['requeued']} job(s) from the journal "
            f"({recovered['merged']} merged, {recovered['skipped']} skipped)",
            flush=True,
        )

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        # raising unwinds serve_forever on the main thread; calling
        # server.shutdown() here would deadlock (it joins the serving
        # loop we are interrupting)
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.close()
    return 0

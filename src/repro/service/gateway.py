"""Upload gateway: arbitrary MSP430 assembly in, guaranteed bounds out.

The paper's headline query — an input-independent peak power/energy
bound for *your* application — was only reachable for the 14 registry
benchmarks.  This module opens it to uploaded source:

* :func:`validate_upload` turns a ``POST /v1/programs`` body into
  canonical job params, rejecting oversized, malformed, or
  non-assembling source with a structured :class:`UploadError` **before
  anything touches the scheduler or the journal** — a bad upload leaves
  zero residue;
* :func:`run_upload_job` is the ``"upload"`` job-kind executor: it
  re-assembles the (pre-validated) source, runs the exact same
  :func:`repro.core.analyze` flow as local ``repro analyze`` (same
  default budgets, so the bounds are bit-identical), and publishes the
  result into the artifact store under a tenant-namespaced key with the
  tenant's result TTL;
* failures that can only be discovered *during* analysis — the cycle
  budget tripping on a non-halting program, a PC that goes X outside a
  forkable branch, an unbounded cyclic tree, the worker's memory cap —
  surface as ``FAILED`` jobs whose error
  string carries a machine-readable ``<code>:`` prefix that the HTTP
  layer maps back to a structured 422.

Resource budgets: wall-clock rides the scheduler's existing per-job
deadline/watchdog primitives (the tenant's ``max_job_seconds`` becomes
``deadline_s``); memory is capped with ``RLIMIT_AS`` — applied **only**
inside process-backend workers (a worker context has no ``scheduler``
attribute), never on scheduler threads where it would cap the whole
server process.
"""

from __future__ import annotations

import hashlib
import re

# NOTE: engine imports (repro.asm, repro.core) happen inside the
# functions that need them — repro.core.activity imports
# repro.service.faults, so a module-level import here would be circular

#: hard server-side cap on uploaded source, regardless of tenant quota
MAX_SOURCE_BYTES_CAP = 512 * 1024

#: upload analysis budgets default to :func:`repro.core.analyze`'s own
#: defaults so an uploaded registry benchmark reproduces `repro analyze`
#: bit for bit; callers may only tighten them, never exceed the cap
DEFAULT_MAX_CYCLES = 200_000
DEFAULT_MAX_SEGMENTS = 4_096

#: RLIMIT_AS for upload workers (MiB) — generous (the packed native
#: engine is memory-light) but finite, so a pathological allocation kills one
#: worker instead of the host
DEFAULT_MEMORY_LIMIT_MB = 4096

#: error-code prefixes an upload job may fail with; the HTTP layer maps
#: ``FAILED`` upload jobs whose error carries one of these to a 422
JOB_ERROR_CODES = (
    "assembly_error",
    "cycle_budget_exceeded",
    "unresolved_pc",
    "unbounded_energy",
    "memory_limit_exceeded",
)

_JOB_ERROR_RE = re.compile(
    r"(?:^|:\s)(" + "|".join(JOB_ERROR_CODES) + r"): "
)

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class UploadError(Exception):
    """A rejected upload: maps straight to one structured HTTP 4xx."""

    def __init__(self, status: int, code: str, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.code = code
        self.extra = dict(extra)


def program_id(source: str) -> str:
    """Content-derived program id: identical source (per tenant) lands
    on one id, so re-uploads dedupe and results are addressable."""
    digest = hashlib.blake2b(source.encode(), digest_size=8).hexdigest()
    return f"p{digest}"


def store_key(tenant: str | None, pid: str) -> str:
    """Tenant-namespaced artifact key for an uploaded program's bound.

    The ``upload_`` prefix keeps the family visible in store stats and
    distinct from the TTL-free registry-benchmark artifacts.
    """
    return f"upload_{tenant or 'public'}_{pid}"


def job_error_code(error: str | None) -> str | None:
    """The structured failure code in an upload job's error string, if
    any (``None`` for crashes/deadlines/other plain failures)."""
    if not error:
        return None
    match = _JOB_ERROR_RE.search(error)
    return match.group(1) if match else None


def _positive_int(body: dict, field: str, cap: int | None = None) -> int | None:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UploadError(
            400, "invalid_request",
            f"{field} must be a positive integer", field=field,
        )
    if cap is not None and value > cap:
        raise UploadError(
            400, "invalid_request",
            f"{field} must be <= {cap}", field=field,
        )
    return value


def validate_upload(body: object, max_source_bytes: int) -> dict:
    """Validate a ``POST /v1/programs`` body into canonical job params.

    Raises :class:`UploadError` for anything wrong, including source
    that does not assemble — the whole pipeline after this point may
    assume the source is well-formed, so assembler bugs can never
    masquerade as worker crashes.
    """
    if not isinstance(body, dict):
        raise UploadError(
            400, "invalid_request", "request body must be a JSON object"
        )
    unknown = set(body) - {
        "source", "name", "loop_bound", "max_cycles", "max_segments"
    }
    if unknown:
        raise UploadError(
            400, "invalid_request",
            f"unknown field{'s' if len(unknown) > 1 else ''}: "
            f"{', '.join(sorted(unknown))}",
        )
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise UploadError(
            400, "invalid_request",
            "source must be a non-empty string of MSP430 assembly",
            field="source",
        )
    limit = min(int(max_source_bytes), MAX_SOURCE_BYTES_CAP)
    size = len(source.encode())
    if size > limit:
        raise UploadError(
            413, "source_too_large",
            f"source is {size} bytes; this tenant's limit is {limit}",
            limit_bytes=limit, size_bytes=size,
        )
    name = body.get("name", "upload")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise UploadError(
            400, "invalid_request",
            "name must match [A-Za-z0-9._-]{1,64}", field="name",
        )
    loop_bound = _positive_int(body, "loop_bound")
    max_cycles = _positive_int(body, "max_cycles", cap=DEFAULT_MAX_CYCLES)
    max_segments = _positive_int(
        body, "max_segments", cap=DEFAULT_MAX_SEGMENTS
    )
    from repro.asm import AssemblyError, assemble

    try:
        assemble(source, name)
    except AssemblyError as err:
        extra = {}
        if err.line_no is not None:
            extra["line"] = err.line_no
            extra["source_line"] = err.line
        raise UploadError(
            422, "assembly_error", err.reason, **extra
        ) from None
    return {
        "source": source,
        "name": name,
        "program_id": program_id(source),
        "loop_bound": loop_bound,
        "max_cycles": (
            max_cycles if max_cycles is not None else DEFAULT_MAX_CYCLES
        ),
        "max_segments": (
            max_segments if max_segments is not None else DEFAULT_MAX_SEGMENTS
        ),
    }


def normalize_upload_params(params: dict) -> dict:
    """Canonicalize upload params for signing (scheduler hook).

    Journal replay and direct ``submit("upload", ...)`` calls pass
    through here too, so the invariants validate_upload established are
    re-checked cheaply (assembly is *not* re-run — the executor does
    that anyway and reports failures as structured job errors).
    """
    params = dict(params)
    source = params.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("upload params need a non-empty 'source' string")
    name = params.get("name", "upload")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError("upload name must match [A-Za-z0-9._-]{1,64}")
    loop_bound = params.get("loop_bound")
    if loop_bound is not None:
        loop_bound = int(loop_bound)
        if loop_bound < 1:
            raise ValueError("loop_bound must be a positive integer")
    canonical = {
        "source": source,
        "name": name,
        # always recomputed: a forged program_id must not let one upload
        # overwrite another's artifact
        "program_id": program_id(source),
        "loop_bound": loop_bound,
        "max_cycles": min(
            int(params.get("max_cycles") or DEFAULT_MAX_CYCLES),
            DEFAULT_MAX_CYCLES,
        ),
        "max_segments": min(
            int(params.get("max_segments") or DEFAULT_MAX_SEGMENTS),
            DEFAULT_MAX_SEGMENTS,
        ),
    }
    # server-injected tenancy fields: params are all that crosses the
    # process boundary to a worker, so namespacing and TTL ride here
    tenant = params.get("tenant")
    if tenant is not None:
        canonical["tenant"] = str(tenant)
    ttl_s = params.get("ttl_s")
    if ttl_s is not None:
        canonical["ttl_s"] = float(ttl_s)
    return canonical


def _apply_memory_limit(limit_mb: int) -> None:
    """Best-effort RLIMIT_AS inside an upload worker process."""
    try:
        import resource
    except ImportError:  # non-POSIX host
        return
    limit = int(limit_mb) * 1024 * 1024
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        if soft == resource.RLIM_INFINITY or soft > limit:
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):
        pass  # a host refusing the cap must not fail the job


def run_upload_job(params: dict, ctx) -> dict:
    """Executor for the ``"upload"`` job kind.

    Warm path: the tenant-namespaced artifact is served straight from
    the store (TTL-checked — an expired result recomputes).  Cold path:
    assemble + :func:`repro.core.analyze` with the job's budgets, then
    publish with the tenant's TTL.  Analysis-time failures are re-raised
    as ``RuntimeError("<code>: detail")`` so both backends surface the
    same machine-readable error string.
    """
    from repro.asm import AssemblyError, assemble
    from repro.bench import runner
    from repro.core import PathExplosionError, analyze
    from repro.core.peakenergy import UnboundedEnergyError
    from repro.cpu import UnresolvedPCError

    pid = params["program_id"]
    key = store_key(params.get("tenant"), pid)
    ttl_s = params.get("ttl_s")  # injected by the server from the keyring
    store = runner.artifact_store()
    try:
        cached = store.get(key)
    except KeyError:
        cached = None
    if isinstance(cached, dict):
        ctx.emit("resolve", f"upload {pid}: artifact hit ({key})")
        return {**cached, "cached": True}
    # memory cap: worker contexts (process backend) lack a .scheduler
    # attribute; scheduler threads must never rlimit the server itself
    if not hasattr(ctx, "scheduler"):
        _apply_memory_limit(DEFAULT_MEMORY_LIMIT_MB)
    ctx.emit("resolve", f"upload {pid}: assemble + analyze ({params['name']})")
    try:
        program = assemble(params["source"], params["name"])
    except AssemblyError as err:
        raise RuntimeError(f"assembly_error: {err}") from None
    try:
        report = analyze(
            runner.shared_cpu(),
            program,
            runner.shared_model(),
            loop_bound=params.get("loop_bound"),
            max_cycles=params["max_cycles"],
            max_segments=params["max_segments"],
            cancel=getattr(ctx, "cancel", None),
        )
    except PathExplosionError as err:
        raise RuntimeError(f"cycle_budget_exceeded: {err}") from None
    except UnresolvedPCError as err:
        raise RuntimeError(f"unresolved_pc: {err}") from None
    except UnboundedEnergyError as err:
        raise RuntimeError(f"unbounded_energy: {err}") from None
    except MemoryError:
        raise RuntimeError(
            "memory_limit_exceeded: analysis exceeded the worker's "
            "memory budget"
        ) from None
    payload = {
        "kind": "upload",
        "program_id": pid,
        "name": params["name"],
        **report.to_payload(),
    }
    ctx.emit("publish", f"storing bound under {key}")
    store.put(key, payload, ttl_s=ttl_s)
    return {**payload, "cached": False}

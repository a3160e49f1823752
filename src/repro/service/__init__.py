"""Analysis service layer: store + scheduler + HTTP API.

The paper's output — an application-specific peak power/energy bound —
is computed once per application and then reused for harvester/battery
sizing and power-management decisions.  This package turns the engine of
PRs 1-4 into a long-lived query service with three layers:

* :mod:`repro.service.store` — a content-addressed artifact store that
  generalizes the ``.repro_cache`` pickle scheme into keyed, versioned,
  atomically-written artifacts with integrity digests, hit/miss
  counters, and a size-capped gc policy (``repro cache stats|gc``).
* :mod:`repro.service.scheduler` — an async job scheduler that accepts
  many concurrent analysis requests, dedupes identical in-flight jobs,
  orders them by priority, and multiplexes them over the host's core
  budget (job slots x GA island workers <= cores) with cancellation and
  per-job progress events.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only HTTP/JSON API (``repro serve``) and client (``repro
  submit``) exposing submit/status/result/events/store endpoints, so
  sizing questions become cheap repeatable queries.
* :mod:`repro.service.journal` — a durable write-ahead log of job
  transitions; ``repro serve`` replays it on startup so queued and
  running jobs survive crashes and restarts.
* :mod:`repro.service.faults` — named, seedable fault-injection sites
  (``REPRO_FAULTS``) so the crash/hang/retry machinery is exercised by
  chaos tests, not just written.
* :mod:`repro.service.gateway` — the multi-tenant upload pipeline:
  arbitrary MSP430 assembly in (size-capped, schema- and
  assembly-validated), the same guaranteed bound as ``repro analyze``
  out, namespaced per tenant with result TTLs (authn/quotas live in
  :mod:`repro.tenancy`).
"""

from repro.service.faults import FaultInjected, FaultSpecError
from repro.service.gateway import UploadError, run_upload_job, validate_upload
from repro.service.journal import JobJournal, ReplayReport, recover_jobs
from repro.service.scheduler import Job, JobScheduler, UnknownJobError
from repro.service.store import ArtifactStore, GcReport, StoreStats
from repro.service.workers import (
    DeadlineExceeded,
    ProcessBackend,
    WorkerCrashed,
    WorkerError,
    WorkerHung,
    describe_exit,
)

__all__ = [
    "ArtifactStore",
    "GcReport",
    "StoreStats",
    "Job",
    "JobScheduler",
    "UnknownJobError",
    "JobJournal",
    "ReplayReport",
    "recover_jobs",
    "FaultInjected",
    "FaultSpecError",
    "ProcessBackend",
    "WorkerCrashed",
    "WorkerError",
    "WorkerHung",
    "DeadlineExceeded",
    "describe_exit",
    "UploadError",
    "validate_upload",
    "run_upload_job",
]

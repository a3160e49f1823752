"""Worker-count resolution and process-pool plumbing.

``workers`` is the GA island process count, resolved from the explicit
argument, then the ``REPRO_WORKERS`` environment variable, then the
serial default of 1.  ``workers=0`` (or ``REPRO_WORKERS=0``) means "one
per core".  The service budgets its job slots against it.

The island pool uses the **fork** start method so workers inherit the
elaborated CPU and power model from the parent for free — no per-worker
elaboration, no pickling of netlists.  On hosts without fork (or inside
a daemonic worker), the GA evolves its islands serially; the stressmark
is identical either way.
"""

from __future__ import annotations

import multiprocessing
import os

#: serial default when neither ``workers=`` nor ``REPRO_WORKERS`` is set
DEFAULT_WORKERS = 1


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` > 1.

    ``0`` (either source) resolves to the core count.  Negative counts
    are rejected.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "")
        if not raw.strip():
            return DEFAULT_WORKERS
        try:
            workers = int(raw)
        except ValueError:
            message = f"REPRO_WORKERS must be an integer, got {raw!r}"
            raise ValueError(message) from None
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def inner_workers(outer_jobs: int, workers: int | None = None) -> int:
    """Per-job island worker count under *outer_jobs* concurrent jobs.

    Composes job-level parallelism (service job slots) with GA island
    processes without oversubscribing: the product ``outer_jobs * inner``
    never exceeds the core count.  With more outer jobs than cores this
    resolves to 1 (serial inner), which is also what keeps nested pools
    off single-core hosts.
    """
    requested = resolve_workers(workers)
    cores = os.cpu_count() or 1
    return max(1, min(requested, cores // max(1, outer_jobs)))


def service_slots(
    max_jobs: int | None = None, workers_per_job: int | None = None
) -> tuple[int, int]:
    """Core budget for the analysis service: ``(job slots, inner workers)``.

    Splits the host between concurrently running jobs and each job's
    GA island workers so ``slots * inner`` never exceeds the core
    count — the same non-oversubscription rule as :func:`inner_workers`,
    applied from the other side: the per-job worker request is fixed and
    the job fan-out is derived.  *workers_per_job* resolves like every other worker knob
    (``None`` honors ``REPRO_WORKERS``, ``0`` means one per core — which
    yields a single job slot using the whole host).  An explicit
    *max_jobs* lowers, never raises, the derived slot count.
    """
    cores = os.cpu_count() or 1
    inner = min(resolve_workers(workers_per_job), cores)
    slots = max(1, cores // inner)
    if max_jobs is not None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        slots = min(slots, max_jobs)
    return slots, inner


def fork_available() -> bool:
    """True when this process may create fork-start worker processes."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    # Daemonic workers (some executor configurations) cannot fork children.
    return not multiprocessing.current_process().daemon


def fork_context():
    """The fork multiprocessing context every repro pool uses."""
    return multiprocessing.get_context("fork")


def spawn_context():
    """The spawn multiprocessing context for service job workers.

    Unlike fork, spawn is safe to use from a multithreaded process (the
    HTTP server + scheduler threads), which is exactly where job workers
    are launched from.  The GA's fork-start island pools are then created
    *inside* the single-threaded worker process, clearing the Python
    3.12+ fork-in-threads hazard.  Spawn is available on every platform.
    """
    return multiprocessing.get_context("spawn")

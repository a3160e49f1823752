"""Multi-core execution layer.

One analysis runs in one process.  Cores are spent only where the work
is embarrassingly parallel:

* across analyses — ``bench.runner.run_suite(jobs=)`` fans benchmarks out
  over a process pool, and the service runs several jobs at once in its
  job slots;
* across GA islands — :mod:`repro.parallel.islands` evolves the island
  populations of the stressmark GA in worker processes, with
  deterministic migration, so the stressmark is identical at any worker
  count.

:mod:`repro.parallel.pool` holds the island worker-count resolution
(``workers=`` / ``REPRO_WORKERS``) and the service's core budget, which
splits the host between job slots and each job's island workers.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    fork_available,
    inner_workers,
    resolve_workers,
)

__all__ = [
    "DEFAULT_WORKERS",
    "fork_available",
    "inner_workers",
    "resolve_workers",
]

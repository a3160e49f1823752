"""Cooperative cancellation for the engine's long-running loops.

One analysis runs in one process, and so does one stressmark: the GA
scores every island's genomes together in lock-step batches.  Cores
are spent only across analyses — ``bench.runner.run_suite(jobs=)`` fans
benchmarks out over a process pool, and the service runs several jobs
at once in its job slots.  :mod:`repro.parallel.cancel` holds the
token those jobs' engine loops check.
"""

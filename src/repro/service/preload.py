"""Forkserver preload for the service's job workers.

:class:`repro.service.workers.ProcessBackend` forks every job worker
from one forkserver process, which imports this module once at its
start.  Everything done here is done once per server instead of once
per job, so it must not depend on the job:

* the modules a worker runs: the runner, the scheduler's executors, the
  upload gateway and the worker entry itself;
* the elaborated ULP430 (``runner.shared_cpu()``), its gate schedule
  (``Ulp430.gate_schedule()``: the packed bit order and the lane tables
  the native evaluator runs), its ``PowerModel`` and the store
  fingerprint they hash to.

The gate schedule is pure numpy tables of the netlist.  Its
``LaneTables`` point into their own arrays, which every forked worker
inherits at the same addresses; nothing of it crosses the job pipe.

It holds no native-kernel state.  The CPU is elaborated without the
kernel prefetch: a compile thread started here would write under the
forkserver's working directory instead of the job's store, and every
forked worker would inherit it dead.  Each job loads the kernel under
its own store directory, as a single analysis does, with its own
environment's compiler (``CC``); when that cannot build it, the job
falls back to the reference engine.
"""

from repro.bench import runner
from repro.cpu import build_ulp430
from repro.service import gateway, scheduler, workers  # noqa: F401

runner._cpu = build_ulp430(prefetch_kernel=False)
runner._cpu.gate_schedule()
runner.shared_model()
runner.cache_fingerprint()

"""Lock-step co-execution conformance layer.

The oracle hierarchy, weakest to strongest claim:

1. :mod:`repro.isa.iss` — the behavioral ISS, the architectural golden
   model (independent of the netlist).
2. ``reference`` engine — the uint8 levelized evaluator of the gate-level
   netlist (the simulation oracle).
3. ``native`` engine — the compiled C kernels on packed dual-rail uint64
   planes, validated bit-identical to the reference per gate, per random
   netlist, per batch step and per benchmark tree.

:func:`repro.verify.coexec.coexecute` pins 2 and 3 against 1 per retired
instruction; :func:`repro.verify.fuzz.fuzz_campaign` feeds it seeded
random programs; :func:`repro.verify.conformance.run_conformance` is the
driver behind ``repro conformance`` and the ``conformance`` service job.
"""

from repro.verify.coexec import (
    CoexecError,
    CoexecResult,
    Divergence,
    DivergenceReport,
    coexecute,
)
from repro.verify.conformance import ConformanceReport, run_conformance
from repro.verify.fuzz import (
    FuzzProgram,
    FuzzReport,
    FuzzUnit,
    fuzz_campaign,
    generate_program,
)
from repro.verify.shrink import shrink_program

__all__ = [
    "CoexecError",
    "CoexecResult",
    "Divergence",
    "DivergenceReport",
    "coexecute",
    "ConformanceReport",
    "run_conformance",
    "FuzzProgram",
    "FuzzReport",
    "FuzzUnit",
    "fuzz_campaign",
    "generate_program",
    "shrink_program",
]

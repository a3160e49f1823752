"""Gate-level ULP processor (openMSP430-class).

``build_ulp430()`` elaborates a complete MSP430-subset microcontroller —
frontend FSM, execution unit (ALU + register file), memory backbone,
16x16 hardware multiplier, watchdog, SFR/GPIO, clock module, and debug
block — into a flat gate-level netlist, and wraps it in :class:`Ulp430`,
which knows how to load programs, run concretely, and expose the hooks the
symbolic explorer needs (fork points, halt detection, COI annotations).
"""

from repro.cpu.core import (
    HaltBudgetError, Ulp430, UnresolvedPCError, build_ulp430,
)

__all__ = ["HaltBudgetError", "Ulp430", "build_ulp430", "UnresolvedPCError"]

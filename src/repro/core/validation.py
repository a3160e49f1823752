"""Validation of the X-based analysis (§3.4).

Two checks, exactly as in the paper:

1. **Toggle superset** (Figure 3.4): every gate that toggles in a
   concrete-input execution must be marked potentially-toggled by the
   symbolic analysis; no gate may be marked only by the input-based run.
2. **Power bound** (Figure 3.5): the X-based per-cycle peak power trace,
   followed along the path the concrete execution takes through the
   execution tree, must dominate the concrete power trace cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.program import Program
from repro.core.activity import ExecutionTree
from repro.core.peakpower import PeakPowerResult
from repro.power.model import PowerModel
from repro.sim.trace import Trace


class PathMismatchError(Exception):
    """A concrete execution did not match any path of the execution tree."""


@dataclass
class ToggleValidation:
    """Gate-set comparison between symbolic and concrete activity."""

    n_common: int
    n_only_symbolic: int
    n_only_concrete: int
    only_concrete_nets: list[int]

    @property
    def is_superset(self) -> bool:
        return self.n_only_concrete == 0


@dataclass
class PowerBoundValidation:
    """Cycle-by-cycle comparison of the bound against a concrete run."""

    n_cycles: int
    bound_mw: np.ndarray
    concrete_mw: np.ndarray
    max_violation_mw: float
    mean_margin_mw: float

    @property
    def is_bound(self) -> bool:
        return self.max_violation_mw <= 1e-9


def run_concrete(cpu, program: Program, inputs: list[int], port_in: int = 0,
                 max_cycles: int = 200_000) -> Trace:
    """Execute one concrete input assignment and return its trace."""
    concrete = program.with_inputs(inputs)
    machine = cpu.make_machine(concrete, symbolic_inputs=False, port_in=port_in)
    trace = Trace(machine.netlist.n_nets)
    cpu.run_to_halt(machine, max_cycles=max_cycles, trace=trace)
    return trace


def validate_toggles(tree: ExecutionTree, concrete: Trace) -> ToggleValidation:
    symbolic_set = tree.toggled_any()
    concrete_set = concrete.toggled_any()
    only_concrete = np.nonzero(concrete_set & ~symbolic_set)[0]
    return ToggleValidation(
        n_common=int((symbolic_set & concrete_set).sum()),
        n_only_symbolic=int((symbolic_set & ~concrete_set).sum()),
        n_only_concrete=len(only_concrete),
        only_concrete_nets=[int(n) for n in only_concrete],
    )


def follow_path(cpu, tree: ExecutionTree, concrete: Trace) -> list[int]:
    """Map the concrete execution onto flat-trace indices, cycle by cycle.

    At every fork the child whose flag assumption matches the concrete
    status register is taken.  Raises :class:`PathMismatchError` when the
    concrete run diverges from the tree (which §3.4 guarantees cannot
    happen for a sound analysis).
    """
    indices: list[int] = []
    segment = tree.segments[0]
    position = 0
    while True:
        sl = tree.segment_slice(segment)
        take = min(segment.n_cycles, len(concrete) - position)
        indices.extend(range(sl.start, sl.start + take))
        position += take
        if segment.end != "fork" or position >= len(concrete):
            return indices
        record = concrete[position]  # the re-executed dispatch
        chosen = None
        for fork in segment.forks:
            if all(
                record.values[net] == value
                for net, value in fork.assignment.items()
            ):
                chosen = fork
                break
        if chosen is None:
            raise PathMismatchError(
                f"no fork of segment {segment.index} matches the concrete "
                f"flags at cycle {position}"
            )
        segment = tree.segments[chosen.target]


def validate_power_bound(
    cpu,
    tree: ExecutionTree,
    peak: PeakPowerResult,
    model: PowerModel,
    concrete: Trace,
) -> PowerBoundValidation:
    path = follow_path(cpu, tree, concrete)
    if len(path) != len(concrete):
        raise PathMismatchError(
            f"path covers {len(path)} cycles, concrete run has {len(concrete)}"
        )
    bound = peak.trace_mw[path]
    concrete_power = model.trace_power(
        concrete.values_matrix(packed=True), concrete.mem_accesses(),
        bit_order=concrete.bit_order,
    ).total_mw
    # Cycle 0 of the concrete trace diffs against the reset state, which the
    # per-segment bound also models (root context row), so compare fully.
    margins = bound - concrete_power
    return PowerBoundValidation(
        n_cycles=len(path),
        bound_mw=bound,
        concrete_mw=concrete_power,
        max_violation_mw=float(max(0.0, -margins.min())) if len(margins) else 0.0,
        mean_margin_mw=float(margins.mean()) if len(margins) else 0.0,
    )

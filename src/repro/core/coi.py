"""Cycles-of-interest analysis (§3.5, Figure 3.6).

Maps peaks in the input-independent peak power trace back to the
instructions occupying the machine and the microarchitectural modules
burning the power, so software optimizations (OPT1-3) can target them.
The per-cycle FSM state and PC come from the tree's annotations, which
the CPU decodes from the stored values once per analysis
(:meth:`~repro.core.activity.ExecutionTree.annotations`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.disasm import disassemble_at
from repro.asm.program import Program
from repro.core.activity import ExecutionTree
from repro.core.peakpower import PeakPowerResult


@dataclass
class CycleOfInterest:
    """One peak-power cycle with its culprit instructions and breakdown."""

    flat_cycle: int
    power_mw: float
    state: str
    #: instruction occupying execute/mem (address, disassembly)
    executing: tuple[int | None, str]
    #: instruction being fetched by the frontend, when known
    fetching: tuple[int | None, str]
    #: per-module power, highest first
    module_breakdown: list[tuple[str, float]]

    def describe(self) -> str:
        exec_addr, exec_text = self.executing
        where = f"{exec_addr:#06x} {exec_text}" if exec_addr is not None else exec_text
        modules = ", ".join(f"{m}={p:.3f}" for m, p in self.module_breakdown[:4])
        return (
            f"cycle {self.flat_cycle} [{self.state}] {self.power_mw:.3f} mW — "
            f"executing {where}; top modules: {modules}"
        )


def _instruction_addresses(
    tree: ExecutionTree, annotations: list[dict]
) -> list[int | None]:
    """Current-instruction address per flat cycle (from dispatch points)."""
    addresses: list[int | None] = [None] * tree.n_cycles
    for segment in tree.segments:
        sl = tree.segment_slice(segment)
        if segment.parent is not None:
            parent = tree.segments[segment.parent[0]]
            parent_last = parent.flat_start + parent.n_cycles - 1
            current = addresses[parent_last]
        else:
            current = None
        for index in range(sl.start, sl.stop):
            notes = annotations[index]
            if notes.get("state") == "DISPATCH":
                pc = notes.get("pc")
                if pc is not None:
                    current = (pc - 2) & 0xFFFF
            addresses[index] = current
    return addresses


def cycles_of_interest(
    tree: ExecutionTree,
    peak: PeakPowerResult,
    program: Program,
    count: int = 5,
    min_separation: int = 2,
) -> list[CycleOfInterest]:
    """The *count* highest peak-power cycles, at least *min_separation*
    cycles apart, annotated as in Figure 3.6."""
    order = np.argsort(-peak.trace_mw)
    chosen: list[int] = []
    for cycle in order:
        if all(abs(int(cycle) - c) >= min_separation for c in chosen):
            chosen.append(int(cycle))
        if len(chosen) == count:
            break

    annotations = tree.annotations()
    addresses = _instruction_addresses(tree, annotations)
    reports = []
    for cycle in sorted(chosen):
        notes = annotations[cycle]
        state = notes.get("state", "?")
        exec_addr = addresses[cycle]
        if exec_addr is not None:
            exec_text, _ = disassemble_at(program.words, exec_addr)
        else:
            exec_text = "(reset)"
        pc = notes.get("pc")
        if state == "FETCH" and pc is not None:
            fetch_text, _ = disassemble_at(program.words, pc)
            fetching: tuple[int | None, str] = (pc, fetch_text)
        else:
            fetching = (None, "-")
        breakdown = sorted(
            ((name, float(series[cycle])) for name, series in peak.module_mw.items()),
            key=lambda item: -item[1],
        )
        reports.append(
            CycleOfInterest(
                flat_cycle=cycle,
                power_mw=float(peak.trace_mw[cycle]),
                state=state,
                executing=(exec_addr, exec_text),
                fetching=fetching,
                module_breakdown=breakdown,
            )
        )
    return reports


def dominant_modules(reports: list[CycleOfInterest], top: int = 3) -> list[str]:
    """Modules that appear most often at the top of COI breakdowns."""
    scores: dict[str, float] = {}
    for report in reports:
        for name, power in report.module_breakdown[:top]:
            scores[name] = scores.get(name, 0.0) + power
    return [name for name, _ in sorted(scores.items(), key=lambda kv: -kv[1])]

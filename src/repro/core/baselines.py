"""Conventional baselines for peak power and energy (§4.2, Figure 1.4).

* ``design_tool`` — rating from the design specification: power analysis
  with the tool's default toggle rate (see
  :func:`repro.power.model.design_tool_rating`).
* ``input_profiling`` — run several concrete input sets, observe peak
  power / energy, and apply the 4/3 guardband of prior work.
* the stressmark baseline lives in :mod:`repro.core.stressmark`.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.asm.program import Program
from repro.power.model import PowerModel, design_tool_rating
from repro.sim.trace import Trace

#: The paper's guardbanding factor, from Intel's thermal design guidance
#: and Kontorinis et al. — matched to the >25% input-induced variability.
GUARDBAND = 4.0 / 3.0


@dataclass
class ProfiledInput:
    """Measurements from one concrete profiling run."""

    inputs: list[int]
    peak_power_mw: float
    avg_power_mw: float
    energy_pj: float
    cycles: int

    @property
    def npe_pj_per_cycle(self) -> float:
        return self.energy_pj / max(self.cycles, 1)


@dataclass
class ProfilingBaseline:
    """Input-based profiling with and without the guardband."""

    runs: list[ProfiledInput]

    @property
    def observed_peak_power_mw(self) -> float:
        return max(run.peak_power_mw for run in self.runs)

    @property
    def observed_npe_pj_per_cycle(self) -> float:
        return max(run.npe_pj_per_cycle for run in self.runs)

    @property
    def guardbanded_peak_power_mw(self) -> float:
        return self.observed_peak_power_mw * GUARDBAND

    @property
    def guardbanded_npe_pj_per_cycle(self) -> float:
        return self.observed_npe_pj_per_cycle * GUARDBAND

    def peak_power_range_mw(self) -> tuple[float, float]:
        """(min, max) across inputs — the error bars of Figs 2.2/4.1."""
        peaks = [run.peak_power_mw for run in self.runs]
        return min(peaks), max(peaks)

    def npe_range(self) -> tuple[float, float]:
        npes = [run.npe_pj_per_cycle for run in self.runs]
        return min(npes), max(npes)


def _measure(
    inputs: list[int], trace: Trace, model: PowerModel
) -> ProfiledInput:
    power = model.trace_power(
        trace.values_matrix(packed=True), trace.mem_accesses(),
        bit_order=trace.bit_order,
    )
    return ProfiledInput(
        inputs=inputs,
        peak_power_mw=power.peak(),
        avg_power_mw=power.average(),
        energy_pj=power.energy_pj(),
        cycles=len(trace),
    )


def profile_one(
    cpu, program: Program, inputs: list[int], model: PowerModel,
    port_in: int = 0, max_cycles: int = 200_000,
) -> ProfiledInput:
    concrete = program.with_inputs(inputs)
    machine = cpu.make_machine(concrete, symbolic_inputs=False, port_in=port_in)
    trace = Trace(machine.netlist.n_nets)
    cpu.run_to_halt(machine, max_cycles=max_cycles, trace=trace)
    return _measure(inputs, trace, model)


def input_profiling(
    cpu,
    program: Program,
    input_sets: list[list[int]],
    model: PowerModel,
    max_cycles: int = 200_000,
    cancel=None,
) -> ProfilingBaseline:
    """The paper's profiling baseline over several input sets.

    The input sets are embarrassingly parallel, so all concrete runs
    advance in lock-step, one :class:`~repro.sim.batch.BatchMachine`
    lane per input set (see :func:`repro.sim.batch.run_batch_to_halt`).
    Lock-step traces are record-for-record identical to
    :func:`profile_one`'s concrete :class:`~repro.sim.machine.Machine`
    runs, so the measurements do not depend on the lane count.  *cancel*
    (a :class:`repro.parallel.cancel.CancelToken`) is checked before the
    lock-step run.
    """
    from repro.sim.batch import run_batch_to_halt

    if cancel is not None:
        cancel.check()
    machines = [
        cpu.make_machine(
            program.with_inputs(inputs), symbolic_inputs=False, port_in=0
        )
        for inputs in input_sets
    ]
    results = run_batch_to_halt(cpu, machines, max_cycles)
    runs = [
        _measure(inputs, trace, model)
        for inputs, (trace, _cycles) in zip(input_sets, results)
    ]
    return ProfilingBaseline(runs=runs)


@dataclass
class DesignToolBaseline:
    peak_power_mw: float
    npe_pj_per_cycle: float


def design_tool(model: PowerModel) -> DesignToolBaseline:
    power_mw, energy_pj = design_tool_rating(model)
    return DesignToolBaseline(
        peak_power_mw=power_mw, npe_pj_per_cycle=energy_pj
    )

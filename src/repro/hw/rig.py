"""The Chapter 2 silicon-measurement substitute.

The paper measures an MSP430F1610 at 8 MHz with an oscilloscope sampling
V and I at 10 MHz (at least one sample per cycle) and <2% run-to-run
variation.  We reproduce the *methodology*: the same core is "fabricated"
in the 130 nm-class library, clocked at 8 MHz, its per-cycle power resampled
on a 10 MHz oscilloscope timebase with measurement noise.  Everything
Chapter 2 derives from silicon — application- and input-dependence of peak
power and the rated-vs-observed gap — emerges from this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.program import Program
from repro.cells import SG130
from repro.power.model import PowerModel, design_tool_rating
from repro.sim.trace import Trace


@dataclass
class Measurement:
    """One oscilloscope capture of a full application run."""

    time_s: np.ndarray
    power_mw: np.ndarray
    cycles: int

    @property
    def peak_mw(self) -> float:
        return float(self.power_mw.max())

    @property
    def avg_mw(self) -> float:
        return float(self.power_mw.mean())

    @property
    def npe_j_per_cycle(self) -> float:
        """Energy per cycle in joules (Fig 2.2's normalized peak energy)."""
        total_j = float(self.power_mw.sum()) * 1e-3 * self._sample_period_s
        return total_j / max(self.cycles, 1)

    _sample_period_s: float = 1e-7  # set by the rig


class MeasurementRig:
    """Runs programs on the "silicon" core and captures scope traces."""

    def __init__(
        self,
        cpu,
        clock_mhz: float = 8.0,
        sample_rate_mhz: float = 10.0,
        noise_fraction: float = 0.01,
        seed: int = 7,
    ):
        self.cpu = cpu
        self.clock_ns = 1e3 / clock_mhz
        self.sample_period_ns = 1e3 / sample_rate_mhz
        self.noise_fraction = noise_fraction
        self.rng = np.random.default_rng(seed)
        self.model = PowerModel(cpu.netlist, SG130, clock_ns=self.clock_ns)

    def rated_peak_mw(self) -> float:
        """The datasheet-style rated peak (the paper's 4.8 mW analogue)."""
        power, _energy = design_tool_rating(self.model)
        return power

    def measure(
        self, program: Program, port_in: int = 0, max_cycles: int = 100_000
    ) -> Measurement:
        """Run one concrete program and capture its power on the scope."""
        if program.n_input_words:
            raise ValueError(
                "measurement rig needs a concrete program; call "
                "Program.with_inputs() first"
            )
        machine = self.cpu.make_machine(
            program, symbolic_inputs=False, port_in=port_in
        )
        trace = Trace(machine.netlist.n_nets)
        cycles = self.cpu.run_to_halt(machine, max_cycles=max_cycles, trace=trace)
        per_cycle = self.model.trace_power(
            trace.values_matrix(packed=True), trace.mem_accesses(),
            bit_order=trace.bit_order,
        ).total_mw

        duration_ns = len(per_cycle) * self.clock_ns
        sample_times_ns = np.arange(0.0, duration_ns, self.sample_period_ns)
        cycle_index = np.minimum(
            (sample_times_ns / self.clock_ns).astype(int), len(per_cycle) - 1
        )
        sampled = per_cycle[cycle_index]
        noise = self.rng.normal(1.0, self.noise_fraction, size=sampled.shape)
        measurement = Measurement(
            time_s=sample_times_ns * 1e-9,
            power_mw=sampled * noise,
            cycles=cycles,
        )
        measurement._sample_period_s = self.sample_period_ns * 1e-9
        return measurement

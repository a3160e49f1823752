"""One-call analysis pipeline.

``analyze(cpu, program, model)`` runs the full technique of the paper —
Algorithm 1 activity analysis, Algorithm 2 peak power, §3.3 peak energy —
and returns a single report object the examples and benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.core.activity import ExecutionTree, explore
from repro.core.peakenergy import PeakEnergyResult, compute_peak_energy
from repro.core.peakpower import PeakPowerResult, compute_peak_power
from repro.power.model import PowerModel


@dataclass
class AnalysisReport:
    """Application-specific, input-independent requirements (the output
    of Figure 3.1's flow)."""

    program_name: str
    tree: ExecutionTree
    peak_power: PeakPowerResult
    peak_energy: PeakEnergyResult

    @property
    def peak_power_mw(self) -> float:
        return self.peak_power.peak_power_mw

    @property
    def peak_energy_pj(self) -> float:
        return self.peak_energy.peak_energy_pj

    @property
    def npe_pj_per_cycle(self) -> float:
        """Normalized peak energy (J/cycle, here pJ/cycle) — Fig 5.2's metric."""
        return self.peak_energy.normalized_peak_energy_pj_per_cycle

    def summary(self) -> str:
        return (
            f"{self.program_name}: peak power "
            f"{self.peak_power_mw:.3f} mW, peak energy "
            f"{self.peak_energy_pj:.1f} pJ over {self.peak_energy.path_cycles} "
            f"cycles (NPE {self.npe_pj_per_cycle:.3f} pJ/cycle), "
            f"{len(self.tree.segments)} path segments"
        )

    def to_payload(self) -> dict:
        """JSON-serializable requirements summary of this full report.

        Floats round-trip through JSON bit-exactly, so serialized
        answers compare equal to a direct :func:`analyze` call.  (The
        analysis service's benchmark jobs return the slimmer
        store-backed schema built in
        :func:`repro.service.scheduler._analysis_payload`; this is the
        full-report view for custom programs and scripting.)"""
        return {
            "program": self.program_name,
            "peak_power_mw": self.peak_power_mw,
            "peak_energy_pj": self.peak_energy_pj,
            "npe_pj_per_cycle": self.npe_pj_per_cycle,
            "peak_cycle": int(self.peak_power.peak_cycle),
            "path_cycles": int(self.peak_energy.path_cycles),
            "n_segments": len(self.tree.segments),
            "n_cycles": int(self.tree.n_cycles),
        }


def analyze(
    cpu,
    program: Program,
    model: PowerModel,
    loop_bound: int | None = None,
    max_cycles: int = 200_000,
    max_segments: int = 4_096,
    vcd_dir=None,
    engine: str | None = None,
    cancel=None,
) -> AnalysisReport:
    """Full input-independent peak power and energy analysis.

    *engine* selects the simulation representation — ``"native"``
    (the compiled C kernels on packed dual rail, the default; the
    reference engine when no compiler), or ``"reference"`` (the uint8
    oracle); ``None`` honors ``REPRO_ENGINE``.  Both are bit-identical,
    and Algorithm 1 explores at the engine's lock-step width (see
    :func:`repro.core.activity.explore`).  One analysis runs in one
    process; to use several cores, run several analyses at once
    (``suite --jobs``, service job slots).
    *cancel* (a :class:`repro.parallel.cancel.CancelToken`) threads
    through both algorithms' inner loops; a set token aborts with
    :class:`repro.parallel.cancel.JobCancelled` without changing any
    result that would have been produced.
    """
    tree = explore(
        cpu,
        program,
        max_cycles=max_cycles,
        max_segments=max_segments,
        engine=engine,
        cancel=cancel,
    )
    peak_power = compute_peak_power(tree, model, vcd_dir=vcd_dir, cancel=cancel)
    peak_energy = compute_peak_energy(tree, peak_power, loop_bound=loop_bound)
    return AnalysisReport(
        program_name=program.name,
        tree=tree,
        peak_power=peak_power,
        peak_energy=peak_energy,
    )

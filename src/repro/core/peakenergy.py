"""Input-independent peak energy (§3.3).

Peak energy is bounded by the execution path with the highest sum of
per-cycle peak power times the clock period.  Paths are enumerated on the
execution tree by dynamic programming: at an input-dependent branch the
higher-energy arm is taken; memoized cross-edges make the graph a DAG for
bounded programs, and genuinely input-dependent loops (cycles in the
segment graph) are handled with a user-supplied iteration bound, as the
paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.activity import ExecutionTree
from repro.core.peakpower import PeakPowerResult


class UnboundedEnergyError(Exception):
    """The segment graph is cyclic and no loop bound was provided."""


@dataclass
class PeakEnergyResult:
    """Peak energy of the worst-case path through the application."""

    peak_energy_pj: float
    path_cycles: int
    path_segments: list[int]
    clock_ns: float

    @property
    def normalized_peak_energy_pj_per_cycle(self) -> float:
        """The paper's NPE metric: peak energy / runtime in cycles."""
        if self.path_cycles == 0:
            return 0.0
        return self.peak_energy_pj / self.path_cycles


def _segment_energies_pj(
    tree: ExecutionTree, peak: PeakPowerResult
) -> list[float]:
    """Per-segment peak-trace energies.

    Algorithm 2 already sums each segment while scattering its results
    back (``PeakPowerResult.segment_energy_pj``); re-slicing the flat
    trace is only the fallback for hand-built result objects.
    """
    if peak.segment_energy_pj is not None:
        return [float(e) for e in peak.segment_energy_pj]
    energies = []
    for segment in tree.segments:
        sl = tree.segment_slice(segment)
        energies.append(float(peak.trace_mw[sl].sum() * peak.clock_ns))
    return energies


def compute_peak_energy(
    tree: ExecutionTree,
    peak: PeakPowerResult,
    loop_bound: int | None = None,
) -> PeakEnergyResult:
    """Bound the peak energy of the application.

    *loop_bound* is only consulted when the execution tree contains cycles
    (an input-dependent loop whose state repeats): each segment may then be
    visited at most ``loop_bound`` times along a path.
    """
    energies = _segment_energies_pj(tree, peak)
    if not tree.is_cyclic():
        return _acyclic_best(tree, peak, energies)
    if loop_bound is None:
        raise UnboundedEnergyError(
            "execution tree has an input-dependent loop; supply loop_bound "
            "(from static analysis or domain knowledge, per §3.3)"
        )
    return _bounded_best(tree, peak, energies, loop_bound)


def _acyclic_best(
    tree: ExecutionTree, peak: PeakPowerResult, energies: list[float]
) -> PeakEnergyResult:
    """Longest-path DP over the acyclic segment graph.

    Iterative post-order: a counted loop with an early exit makes the
    graph thousands of segments deep.  Each segment's best tail is its
    highest-energy fork target's best path (the first fork wins a tie).
    """
    segments = tree.segments
    #: segment -> (path energy, path cycles, next segment or None)
    best: dict[int, tuple[float, int, int | None]] = {}
    stack = [0]
    while stack:
        index = stack[-1]
        if index in best:
            stack.pop()
            continue
        segment = segments[index]
        if segment.end == "halt" or not segment.forks:
            best[index] = (energies[index], segment.n_cycles, None)
            stack.pop()
            continue
        unsolved = [f.target for f in segment.forks if f.target not in best]
        if unsolved:
            stack.extend(unsolved)
            continue
        stack.pop()
        choice = max(
            (fork.target for fork in segment.forks),
            key=lambda target: best[target][0],
        )
        energy, cycles, _next = best[choice]
        best[index] = (
            energies[index] + energy, segment.n_cycles + cycles, choice
        )

    path = []
    index: int | None = 0
    while index is not None:
        path.append(index)
        index = best[index][2]
    energy, cycles, _next = best[0]
    return PeakEnergyResult(
        peak_energy_pj=energy,
        path_cycles=cycles,
        path_segments=path,
        clock_ns=peak.clock_ns,
    )


def _bounded_best(
    tree: ExecutionTree,
    peak: PeakPowerResult,
    energies: list[float],
    loop_bound: int,
) -> PeakEnergyResult:
    """Longest-path DP with at most ``loop_bound * n_segments`` hops."""
    n = len(tree.segments)
    max_hops = loop_bound * n
    neg = float("-inf")
    # dp[s] = (energy, cycles, path) of the best halt-terminated path of
    # exactly k segments starting at s; iterate k upward.
    halting = [
        (energies[s], tree.segments[s].n_cycles, (s,))
        if tree.segments[s].end == "halt" or not tree.segments[s].forks
        else (neg, 0, ())
        for s in range(n)
    ]
    # previous[s] = best halt-terminated path from s using <= k segments.
    previous = list(halting)
    for _hop in range(max_hops):
        current = list(halting)
        for s in range(n):
            for fork in tree.segments[s].forks:
                tail = previous[fork.target]
                if tail[0] == neg:
                    continue
                total = (
                    energies[s] + tail[0],
                    tree.segments[s].n_cycles + tail[1],
                    (s,) + tail[2],
                )
                if total[0] > current[s][0]:
                    current[s] = total
        if current == previous:
            break
        previous = current
    energy, cycles, path = previous[0]
    if energy == neg:
        raise UnboundedEnergyError("no halt-terminated path found")
    return PeakEnergyResult(
        peak_energy_pj=energy,
        path_cycles=cycles,
        path_segments=list(path),
        clock_ns=peak.clock_ns,
    )


def worst_case_average_power_mw(result: PeakEnergyResult) -> float:
    """Peak energy expressed as average power over the worst path."""
    if result.path_cycles == 0:
        return 0.0
    return result.peak_energy_pj / (result.path_cycles * result.clock_ns)

"""Unit tests for the analysis core: Algorithm 1, Algorithm 2, §3.3."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.cells import SG65
from repro.core import analyze, explore
from repro.core.activity import ExecutionTree, Fork, PathExplosionError, Segment
from repro.core.peakenergy import compute_peak_energy
from repro.core.peakpower import (
    PeakPowerResult,
    compute_peak_power,
    maximize_parity,
)
from repro.cpu import UnresolvedPCError
from repro.logic import X
from repro.power import PowerModel
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def program(body: str, inputs: str = ""):
    return assemble(
        f".equ WDTCTL, 0x0120\n.org 0xF000\n"
        f"start: mov #0x5A80, &WDTCTL\n{body}\nend: jmp end\n{inputs}",
        "t",
    )


STRAIGHT = program("mov #5, r4\n add r4, r4")

ONE_BRANCH = program(
    """
        mov #inp, r4
        mov @r4, r5
        tst r5
        jz  iszero
        mov #1, r6
iszero: mov r6, &0x0300
""",
    ".org 0x0240\ninp: .input 1\n",
)

WAIT_LOOP = program(
    """
        mov #inp, r4
again:  mov @r4, r5
        tst r5
        jnz again
        mov #1, r6
""",
    ".org 0x0240\ninp: .input 1\n",
)


class TestExplorer:
    def test_straight_line_single_segment(self, cpu):
        tree = explore(cpu, STRAIGHT)
        assert len(tree.segments) == 1
        assert tree.segments[0].end == "halt"
        assert not tree.is_cyclic()

    def test_input_branch_forks(self, cpu):
        tree = explore(cpu, ONE_BRANCH)
        assert len(tree.segments) == 3  # root + two arms
        assert tree.segments[0].end == "fork"
        assert len(tree.segments[0].forks) == 2

    def test_fork_assignments_are_flag_concretizations(self, cpu):
        tree = explore(cpu, ONE_BRANCH)
        assignments = [f.assignment for f in tree.segments[0].forks]
        values = sorted(tuple(a.values()) for a in assignments)
        assert values == [(0,), (1,)]

    def test_segment_slices_tile_flat_trace(self, cpu):
        tree = explore(cpu, ONE_BRANCH)
        covered = sorted(
            index
            for segment in tree.segments
            for index in range(*tree.segment_slice(segment).indices(tree.n_cycles))
        )
        assert covered == list(range(tree.n_cycles))

    def test_budget_enforced(self, cpu):
        with pytest.raises(PathExplosionError):
            explore(cpu, ONE_BRANCH, max_cycles=5)

    def test_computed_jump_rejected(self, cpu):
        bad = program(
            "mov #inp, r4\n mov @r4, r5\n br r5",
            ".org 0x0240\ninp: .input 1\n",
        )
        with pytest.raises(UnresolvedPCError):
            explore(cpu, bad)

    def test_memoization_merges_input_dependent_loops(self, cpu):
        """A wait-on-input loop repeats its state exactly: Algorithm 1's
        memoization must terminate it rather than unroll forever."""
        tree = explore(cpu, WAIT_LOOP)
        assert tree.n_memo_hits >= 1
        assert tree.is_cyclic()


class TestMaximizeParity:
    def test_double_x_gets_max_transition(self):
        values = np.full((3, 2), X, dtype=np.uint8)
        active = np.ones((3, 2), dtype=bool)
        max_prev = np.array([0, 1], dtype=np.uint8)
        max_cur = np.array([1, 0], dtype=np.uint8)
        out = maximize_parity(values, active, 0, max_prev, max_cur)
        assert out[1, 0] == 0 and out[2, 0] == 1
        assert out[1, 1] == 1 and out[2, 1] == 0

    def test_single_x_toggles(self):
        values = np.array([[0], [X], [0]], dtype=np.uint8)
        active = np.ones((3, 1), dtype=bool)
        zeros = np.zeros(1, dtype=np.uint8)
        ones = np.ones(1, dtype=np.uint8)
        out = maximize_parity(values, active, 0, zeros, ones)
        # cycle 2 is even: X at cycle 1 becomes the opposite of cycle 2
        assert out[1, 0] == 1

    def test_inactive_gates_untouched(self):
        values = np.full((3, 1), X, dtype=np.uint8)
        active = np.zeros((3, 1), dtype=bool)
        out = maximize_parity(
            values, active, 0,
            np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8),
        )
        assert (out == X).all()

    def test_known_values_never_modified(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 3, size=(8, 4)).astype(np.uint8)
        active = rng.integers(0, 2, size=(8, 4)).astype(bool)
        known_mask = values != X
        out = maximize_parity(
            values, active, 1,
            np.zeros(4, dtype=np.uint8), np.ones(4, dtype=np.uint8),
        )
        assert (out[known_mask] == values[known_mask]).all()
        assert not (out == X)[~known_mask].any() or True  # Xs may remain


class TestPeakPower:
    def test_peak_positive_and_located(self, cpu, model):
        tree = explore(cpu, STRAIGHT)
        peak = compute_peak_power(tree, model)
        assert peak.peak_power_mw > 0
        assert 0 <= peak.peak_cycle < tree.n_cycles
        assert peak.trace_mw[peak.peak_cycle] == pytest.approx(
            peak.peak_power_mw
        )

    def test_even_odd_profiles_resolve_active_xs(self, cpu, model):
        tree = explore(cpu, ONE_BRANCH)
        peak = compute_peak_power(tree, model)
        active = tree.flat_trace.active_matrix()
        still_x_even = (peak.even_values == X) & active
        # active Xs in even target cycles must be resolved
        assert not still_x_even[2::2].any()

    def test_module_breakdown_present(self, cpu, model):
        tree = explore(cpu, STRAIGHT)
        peak = compute_peak_power(tree, model)
        assert "exec_unit" in peak.module_mw
        assert len(peak.module_mw["exec_unit"]) == tree.n_cycles

    def test_vcd_artifacts(self, cpu, model, tmp_path):
        tree = explore(cpu, STRAIGHT)
        compute_peak_power(tree, model, vcd_dir=tmp_path)
        assert (tmp_path / "even.vcd").exists()
        assert (tmp_path / "odd.vcd").exists()


class TestPeakEnergy:
    def test_straight_line_energy_is_trace_sum(self, cpu, model):
        tree = explore(cpu, STRAIGHT)
        peak = compute_peak_power(tree, model)
        energy = compute_peak_energy(tree, peak)
        assert energy.peak_energy_pj == pytest.approx(
            float(peak.trace_mw.sum() * 10.0)
        )
        assert energy.path_cycles == tree.n_cycles

    def test_branch_takes_worse_arm(self, cpu, model):
        tree = explore(cpu, ONE_BRANCH)
        peak = compute_peak_power(tree, model)
        energy = compute_peak_energy(tree, peak)
        root = tree.segments[0]
        arms = [tree.segments[f.target] for f in root.forks]
        arm_energies = [
            float(peak.trace_mw[tree.segment_slice(arm)].sum() * 10.0)
            for arm in arms
        ]
        root_energy = float(
            peak.trace_mw[tree.segment_slice(root)].sum() * 10.0
        )
        assert energy.peak_energy_pj == pytest.approx(
            root_energy + max(arm_energies)
        )

    def test_npe_definition(self, cpu, model):
        report = analyze(cpu, ONE_BRANCH, model)
        assert report.npe_pj_per_cycle == pytest.approx(
            report.peak_energy_pj / report.peak_energy.path_cycles
        )


def early_exit_chain(n_bodies: int, hot_exit: int):
    """The tree of a counted loop that may exit early on every pass.

    Body segment ``2k`` (2 cycles) forks to exit ``2k + 1`` (1 cycle,
    halt) and to the next body; the last body halts.  Every cycle costs
    1 mW except exit *hot_exit*'s, so the worst path runs the bodies
    ``0..hot_exit`` and leaves through that exit.  Built by hand: deep
    trees need no simulation.
    """
    segments = []
    flat_start = 0
    for k in range(n_bodies):
        body = Segment(index=2 * k, parent=None, flat_start=flat_start,
                       n_cycles=2, end="halt")
        flat_start += 2
        segments.append(body)
        if k == n_bodies - 1:
            break
        body.end = "fork"
        body.forks = [Fork({0: 1}, 2 * k + 1), Fork({0: 0}, 2 * k + 2)]
        segments.append(Segment(index=2 * k + 1, parent=(2 * k, 0),
                                flat_start=flat_start, n_cycles=1,
                                end="halt"))
        flat_start += 1
    trace_mw = np.ones(flat_start)
    trace_mw[segments[2 * hot_exit + 1].flat_start] = 1000.0
    tree = ExecutionTree(segments=segments, flat_trace=Trace(1))
    peak = PeakPowerResult(
        peak_power_mw=1000.0, peak_cycle=int(trace_mw.argmax()),
        trace_mw=trace_mw, module_mw={}, clock_ns=10.0,
    )
    return tree, peak


class TestDeepTrees:
    """Tree walks are iterative: depth is bounded by the exploration
    budget, not by Python's recursion limit."""

    N_BODIES = 1500  # 2,999 segments, twice the default recursion limit

    def test_deep_chain_is_acyclic(self):
        tree, _peak = early_exit_chain(self.N_BODIES, hot_exit=1000)
        assert len(tree.segments) == 2 * self.N_BODIES - 1
        assert not tree.is_cyclic()

    def test_deep_back_edge_is_found(self):
        tree, _peak = early_exit_chain(self.N_BODIES, hot_exit=1000)
        last = tree.segments[-1]
        last.end = "fork"
        last.forks = [Fork({0: 1}, 0)]
        assert tree.is_cyclic()

    def test_deep_chain_peak_energy(self):
        tree, peak = early_exit_chain(self.N_BODIES, hot_exit=1000)
        energy = compute_peak_energy(tree, peak)
        bodies = list(range(0, 2 * 1000 + 1, 2))
        assert energy.path_segments == bodies + [2 * 1000 + 1]
        assert energy.path_cycles == 2 * len(bodies) + 1
        assert energy.peak_energy_pj == pytest.approx(
            (2 * len(bodies) + 1000.0) * 10.0
        )

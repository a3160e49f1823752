"""Property-based tests of the soundness lemmas the paper relies on.

The X-based analysis is sound because of a refinement chain:

1. gate-level 3-valued evaluation is *monotone*: concretizing inputs can
   only concretize outputs consistently (tested here on random circuits);
2. therefore a symbolic simulation covers every concrete simulation;
3. Algorithm 2's X-assignment only concretizes Xs (never edits known
   values), so the maximized profile is a legal concretization too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peakpower import assign_planes, maximize_parity
from repro.logic import ONE, X, ZERO, refines
from repro.netlist import NetlistBuilder
from repro.netlist.core import Netlist
from repro.netlist.program import NetlistProgram, net_order
from repro.power.model import edge_planes
from repro.sim import LevelizedEvaluator


def random_circuit(rng: np.random.Generator, n_inputs: int, n_gates: int):
    """A random combinational DAG over the 2-input gate kinds."""
    nb = NetlistBuilder("random")
    nets = [nb.input(f"i{k}") for k in range(n_inputs)]
    ops = [nb.and_, nb.or_, nb.xor, nb.nand, nb.nor, nb.xnor]
    for _ in range(n_gates):
        op = ops[rng.integers(0, len(ops))]
        a = nets[rng.integers(0, len(nets))]
        b = nets[rng.integers(0, len(nets))]
        nets.append(op(a, b))
    netlist = nb.finish()
    inputs = nets[:n_inputs]
    return netlist, inputs


class TestEvaluationMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_inputs=st.integers(min_value=2, max_value=6),
        n_gates=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_concrete_runs_refine_symbolic_runs(
        self, seed, n_inputs, n_gates, data
    ):
        rng = np.random.default_rng(seed)
        netlist, inputs = random_circuit(rng, n_inputs, n_gates)
        evaluator = LevelizedEvaluator(netlist)

        symbolic_in = [
            data.draw(st.sampled_from([ZERO, ONE, X]), label=f"sym{i}")
            for i in range(n_inputs)
        ]
        concrete_in = [
            bit if bit != X else data.draw(st.sampled_from([ZERO, ONE]))
            for bit in symbolic_in
        ]

        symbolic = evaluator.fresh_values()
        concrete = evaluator.fresh_values()
        for net, s_bit, c_bit in zip(inputs, symbolic_in, concrete_in):
            symbolic[net] = s_bit
            concrete[net] = c_bit
        evaluator.eval_comb(symbolic)
        evaluator.eval_comb(concrete)
        for net in range(netlist.n_nets):
            assert refines(int(concrete[net]), int(symbolic[net])), (
                f"net {net}: concrete {concrete[net]} does not refine "
                f"symbolic {symbolic[net]}"
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_gates=st.integers(min_value=1, max_value=30),
    )
    def test_all_x_inputs_cover_all_concrete_runs(self, seed, n_gates):
        """The extreme case Algorithm 1 uses: inputs all X cover any run."""
        rng = np.random.default_rng(seed)
        netlist, inputs = random_circuit(rng, 3, n_gates)
        evaluator = LevelizedEvaluator(netlist)
        symbolic = evaluator.fresh_values()
        evaluator.eval_comb(symbolic)
        for pattern in range(8):
            concrete = evaluator.fresh_values()
            for position, net in enumerate(inputs):
                concrete[net] = (pattern >> position) & 1
            evaluator.eval_comb(concrete)
            for net in range(netlist.n_nets):
                assert refines(int(concrete[net]), int(symbolic[net]))


def toy_program() -> NetlistProgram:
    """A small compiled netlist: its sources and its word-aligned DFF
    block come first, so its bit order is not the identity and has pad
    bits."""
    netlist = Netlist()
    a = netlist.add_gate("INPUT")
    b = netlist.add_gate("INPUT")
    netlist.add_gate("CONST1")
    q = netlist.add_gate("DFF", (a,))
    x = netlist.add_gate("AND", (a, b))
    y = netlist.add_gate("XOR", (x, q))
    m = netlist.add_gate("MUX", (a, x, y))
    netlist.add_gate("NOR", (m, b))
    netlist.add_gate("NOT", (y,))
    return NetlistProgram(netlist)


class TestPackedXAssignment:
    """Algorithm 2 on packed planes ≡ the trit reference, rule for rule:
    :func:`assign_planes` then :func:`edge_planes` must give exactly
    :func:`maximize_parity` followed by the uint8 edge rules
    ``prev != cur`` / ``cur != 0`` (rising) / ``cur == 0`` (falling)."""

    ORDERS = {"program": toy_program(), "net_order": net_order(13)}

    def test_toy_program_has_pads(self):
        program = self.ORDERS["program"]
        assert not np.array_equal(program.pos_of, np.arange(program.n_nets))
        assert program.n_bits > program.n_nets

    @pytest.mark.parametrize("name", sorted(ORDERS))
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_cycles=st.integers(min_value=3, max_value=10),
        parity=st.integers(min_value=0, max_value=1),
    )
    def test_word_rules_equal_trit_rules(self, name, seed, n_cycles, parity):
        order = self.ORDERS[name]
        rng = np.random.default_rng(seed)
        n_nets = order.n_nets
        values = rng.integers(0, 3, size=(n_cycles, n_nets), dtype=np.uint8)
        active = rng.integers(0, 2, size=(n_cycles, n_nets)).astype(bool)
        max_prev = rng.integers(0, 2, size=n_nets, dtype=np.uint8)
        max_cur = rng.integers(0, 2, size=n_nets, dtype=np.uint8)

        assigned = maximize_parity(values, active, parity, max_prev, max_cur)
        targets = np.arange(parity if parity else 2, n_cycles, 2)
        prev, cur = assigned[targets - 1], assigned[targets]
        toggled = prev != cur

        planes = order.pack_values(values).transpose(1, 0, 2)
        new_prev, new_cur = assign_planes(
            planes[:, targets - 1], planes[:, targets],
            order.pack_active(active)[targets],
            order.pack_values(max_prev)[0], order.pack_values(max_cur)[0],
        )
        assert np.array_equal(order.unpack_trits(*new_prev), prev)
        assert np.array_equal(order.unpack_trits(*new_cur), cur)
        rise, fall = edge_planes(new_prev, new_cur)
        assert np.array_equal(order.unpack_bits(rise), toggled & (cur != 0))
        assert np.array_equal(order.unpack_bits(fall), toggled & (cur == 0))
        # pads (and the program's constant-zero bit) never produce an edge
        assert not ((rise | fall) & ~order.valid_mask).any()


class TestXAssignmentProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_cycles=st.integers(min_value=2, max_value=12),
        n_nets=st.integers(min_value=1, max_value=8),
        parity=st.integers(min_value=0, max_value=1),
    )
    def test_assignment_is_a_concretization(self, seed, n_cycles, n_nets, parity):
        """maximize_parity may only resolve Xs, never edit known values."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=(n_cycles, n_nets)).astype(np.uint8)
        active = rng.integers(0, 2, size=(n_cycles, n_nets)).astype(bool)
        max_prev = rng.integers(0, 2, size=n_nets).astype(np.uint8)
        max_cur = (1 - max_prev).astype(np.uint8)
        assigned = maximize_parity(values, active, parity, max_prev, max_cur)
        known = values != X
        assert (assigned[known] == values[known]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_cycles=st.integers(min_value=3, max_value=12),
        n_nets=st.integers(min_value=1, max_value=8),
        parity=st.integers(min_value=0, max_value=1),
    )
    def test_active_xs_toggle_in_target_cycles(
        self, seed, n_cycles, n_nets, parity
    ):
        """In every target-parity cycle, an active gate whose value was X
        ends up making a transition — that is what maximizes power."""
        rng = np.random.default_rng(seed)
        values = np.full((n_cycles, n_nets), X, dtype=np.uint8)
        active = rng.integers(0, 2, size=(n_cycles, n_nets)).astype(bool)
        max_prev = np.zeros(n_nets, dtype=np.uint8)
        max_cur = np.ones(n_nets, dtype=np.uint8)
        assigned = maximize_parity(values, active, parity, max_prev, max_cur)
        start = parity if parity >= 1 else 2
        for cycle in range(start, n_cycles, 2):
            toggled = assigned[cycle] != assigned[cycle - 1]
            both_known = (assigned[cycle] != X) & (assigned[cycle - 1] != X)
            assert (toggled & both_known)[active[cycle]].all()

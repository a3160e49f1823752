"""Packed-state unit layer: the native settle against the reference.

:class:`~repro.sim.bitplane.BitplaneEvaluator` is the packed dual-rail
state format; :class:`~repro.sim.native.NativeEvaluator` adds the settle
(``repro_settle``: packed rows sliced into lanes, through the gate
passes the batch step runs, and back).  The oracle is the uint8
:class:`~repro.sim.evaluator.LevelizedEvaluator`.  Three tiers, mirroring
the engine's soundness argument:

1. **Gate kernels, exhaustively**: every gate kind over every 3-valued
   input combination, settled by the C kernel, must match the scalar
   truth functions in :mod:`repro.logic.ternary` — the dual-rail formulas
   (and the rail-fold compilation of the inverting kinds) are proven by
   enumeration.
2. **Representation round-trips**: pack/unpack over random trit states is
   the identity, for scalar and batched shapes, values and activity.
3. **Randomized netlist equivalence**: on random DAGs the fused
   settle+mark sweep must reproduce ``LevelizedEvaluator.eval_comb`` +
   ``compute_activity`` bit for bit, including the input/DFF activity
   rules, batched evaluation, DFF clocking and machine records.

The lane-sliced batch step and the benchmark-scale identity (whole
execution trees on the real CPU) live in ``test_native.py``; the golden
pins in ``test_differential.py``.
"""

import itertools

import numpy as np
import pytest

from repro.logic import X, ternary
from repro.netlist import NetlistBuilder
from repro.netlist.core import Netlist
from repro.sim.bitplane import (
    BitplaneEvaluator,
    default_engine,
    make_evaluator,
    popcount,
)
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.machine import Machine, MemoryPorts
from repro.sim.native import NativeEvaluator
from repro.sim.trace import Trace

TWO_INPUT_FUNCS = {
    "AND": ternary.t_and,
    "OR": ternary.t_or,
    "NAND": ternary.t_nand,
    "NOR": ternary.t_nor,
    "XOR": ternary.t_xor,
    "XNOR": ternary.t_xnor,
}


def random_netlist(n_gates: int, seed: int) -> Netlist:
    """A random layered DAG exercising every gate kind."""
    rng = np.random.default_rng(seed)
    netlist = Netlist()
    for _ in range(8):
        netlist.add_gate("INPUT")
    netlist.add_gate("CONST0")
    netlist.add_gate("CONST1")
    for _ in range(6):
        netlist.add_gate("DFF", (int(rng.integers(0, 10)),))
    kinds = list(TWO_INPUT_FUNCS)
    while len(netlist.gates) < n_gates:
        n = len(netlist.gates)
        choice = rng.integers(0, 10)
        if choice < 6:
            netlist.add_gate(
                kinds[int(rng.integers(0, len(kinds)))],
                (int(rng.integers(0, n)), int(rng.integers(0, n))),
            )
        elif choice < 8:
            netlist.add_gate(
                "MUX", tuple(int(rng.integers(0, n)) for _ in range(3))
            )
        elif choice == 8:
            netlist.add_gate("NOT", (int(rng.integers(0, n)),))
        else:
            netlist.add_gate("BUF", (int(rng.integers(0, n)),))
    for gate in netlist.gates:  # DFFs may sample any net, later ones too
        if gate.kind == "DFF":
            gate.inputs = (int(rng.integers(0, len(netlist.gates))),)
    return netlist


def settle_sources(
    evaluator: NativeEvaluator,
    reference: LevelizedEvaluator,
    source_values: dict[int, int],
):
    """Settle both engines from fresh state with *source_values* forced."""
    expected = reference.fresh_values()
    for net, value in source_values.items():
        expected[net] = value
    reference.eval_comb(expected)

    planes = evaluator.fresh_planes()
    evaluator.stash_prev(planes)
    for net, value in source_values.items():
        evaluator.write_trit(planes, net, value)
    evaluator.settle_and_mark(planes)
    return expected, evaluator.unpack_values(planes)


class TestGateKernelsExhaustive:
    """3^arity enumeration of every kind against logic.ternary."""

    def test_two_input_kinds(self):
        netlist = Netlist()
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        outs = {
            kind: netlist.add_gate(kind, (a, b)) for kind in TWO_INPUT_FUNCS
        }
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for va, vb in itertools.product((0, 1, X), repeat=2):
            expected, got = settle_sources(
                evaluator, reference, {a: va, b: vb}
            )
            assert np.array_equal(got, expected)
            for kind, func in TWO_INPUT_FUNCS.items():
                assert got[outs[kind]] == func(va, vb), (kind, va, vb)

    def test_not_and_buf(self):
        netlist = Netlist()
        a = netlist.add_gate("INPUT")
        y_not = netlist.add_gate("NOT", (a,))
        y_buf = netlist.add_gate("BUF", (a,))
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for va in (0, 1, X):
            _expected, got = settle_sources(evaluator, reference, {a: va})
            assert got[y_not] == ternary.t_not(va)
            assert got[y_buf] == ternary.t_buf(va)

    def test_mux_all_27(self):
        netlist = Netlist()
        s = netlist.add_gate("INPUT")
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        y = netlist.add_gate("MUX", (s, a, b))
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for vs, va, vb in itertools.product((0, 1, X), repeat=3):
            _expected, got = settle_sources(
                evaluator, reference, {s: vs, a: va, b: vb}
            )
            assert got[y] == ternary.t_mux(vs, va, vb), (vs, va, vb)


class TestPackUnpackRoundTrip:
    @pytest.mark.parametrize("lead", [(), (1,), (7,)])
    def test_values_round_trip(self, lead):
        rng = np.random.default_rng(3)
        netlist = random_netlist(220, seed=5)
        evaluator = BitplaneEvaluator(netlist)
        values = rng.integers(0, 3, size=lead + (netlist.n_nets,), dtype=np.uint8)
        planes = evaluator.pack_state(values)
        assert planes.shape == lead + (3, evaluator.n_words)
        assert np.array_equal(evaluator.unpack_values(planes), values)

    @pytest.mark.parametrize("lead", [(), (5,)])
    def test_activity_round_trip(self, lead):
        rng = np.random.default_rng(4)
        netlist = random_netlist(180, seed=6)
        evaluator = BitplaneEvaluator(netlist)
        values = rng.integers(0, 3, size=lead + (netlist.n_nets,), dtype=np.uint8)
        active = rng.integers(0, 2, size=lead + (netlist.n_nets,)).astype(bool)
        planes = evaluator.pack_state(values, active)
        assert np.array_equal(evaluator.unpack_active(planes), active)
        counts = popcount(planes[..., 2, :])  # pads are never active
        assert np.array_equal(counts, active.sum(axis=-1))

    def test_fresh_matches_reference(self):
        netlist = random_netlist(150, seed=7)
        reference = LevelizedEvaluator(netlist)
        evaluator = BitplaneEvaluator(netlist)
        assert np.array_equal(
            evaluator.fresh_values(), reference.fresh_values()
        )
        assert np.array_equal(
            evaluator.fresh_values(batch=4), reference.fresh_values(batch=4)
        )


class TestRandomizedNetlistEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_settle_and_activity_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        netlist = random_netlist(200 + 41 * seed, seed)
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        for _trial in range(6):
            prev = rng.integers(0, 3, size=netlist.n_nets, dtype=np.uint8)
            prev[reference.const0_nets] = 0
            prev[reference.const1_nets] = 1
            reference.eval_comb(prev)
            prev_active = rng.integers(0, 2, size=netlist.n_nets).astype(bool)

            cur = prev.copy()
            new_sources = rng.integers(0, 3, size=len(sources), dtype=np.uint8)
            cur[sources] = new_sources
            reference.eval_comb(cur)
            expected_active = reference.compute_activity(
                prev, cur, prev_active
            )

            planes = evaluator.pack_state(prev, prev_active)
            evaluator.stash_prev(planes)
            for net, value in zip(sources, new_sources):
                evaluator.write_trit(planes, net, int(value))
            evaluator.settle_and_mark(planes)
            assert np.array_equal(evaluator.unpack_values(planes), cur)
            assert np.array_equal(
                evaluator.unpack_active(planes), expected_active
            )

    def test_batched_settle_matches_rowwise(self):
        rng = np.random.default_rng(55)
        netlist = random_netlist(400, seed=9)
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        B = 5
        prev = rng.integers(0, 3, size=(B, netlist.n_nets), dtype=np.uint8)
        prev[:, reference.const0_nets] = 0
        prev[:, reference.const1_nets] = 1
        reference.eval_comb(prev)
        prev_active = rng.integers(0, 2, size=(B, netlist.n_nets)).astype(bool)
        cur = prev.copy()
        new_sources = rng.integers(0, 3, size=(B, len(sources)), dtype=np.uint8)
        cur[:, sources] = new_sources
        reference.eval_comb(cur)
        expected_active = reference.compute_activity(prev, cur, prev_active)

        planes = evaluator.pack_state(prev, prev_active)
        evaluator.stash_prev(planes)
        for row in range(B):
            for net, value in zip(sources, new_sources[row]):
                evaluator.write_trit(planes[row], net, int(value))
        evaluator.settle_and_mark(planes)
        assert np.array_equal(evaluator.unpack_values(planes), cur)
        assert np.array_equal(evaluator.unpack_active(planes), expected_active)

    def test_dff_gather_and_reset(self):
        rng = np.random.default_rng(77)
        netlist = random_netlist(260, seed=11)
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        values = rng.integers(0, 3, size=netlist.n_nets, dtype=np.uint8)
        planes = evaluator.pack_state(values)
        loaded = evaluator.next_dff_planes(planes, reset=False)
        evaluator.set_dff_planes(planes, loaded)
        expected = reference.next_dff_values(values, reset=False)
        assert np.array_equal(
            evaluator.unpack_values(planes)[reference.dff_out], expected
        )
        reset = evaluator.next_dff_planes(planes, reset=True)
        evaluator.set_dff_planes(planes, reset)
        assert np.array_equal(
            evaluator.unpack_values(planes)[reference.dff_out],
            reference.dff_reset,
        )


def counter_machine(engine: str):
    """The minimal clocked target from test_sim_machine, engine-selected."""
    nb = NetlistBuilder("counter")
    with nb.module("core"):
        count = nb.register(4, "count")
        nb.connect_register(count, nb.increment(count))
        dout = nb.bus_input("mem_dout", 16)
        addr = count + [nb.const0()] * 11
        we = nb.const0()
        en = nb.const1()
    netlist = nb.finish()
    ports = MemoryPorts(addr=addr, din=addr[:16], dout=dout, we=we, en=en)
    return Machine(netlist, ports, make_evaluator(netlist, engine)), count


class TestMachineEngineEquivalence:
    def test_counter_records_identical(self):
        ref_machine, _ = counter_machine("reference")
        packed_machine, _ = counter_machine("native")
        assert not ref_machine.packed
        assert packed_machine.packed
        for _ in range(2):
            ref_machine.step(reset=True)
            packed_machine.step(reset=True)
        traces = [Trace(ref_machine.netlist.n_nets) for _ in range(2)]
        for _ in range(24):
            ref_machine.step(trace=traces[0])
            packed_machine.step(trace=traces[1])
            ref_record, packed_record = traces[0][-1], traces[1][-1]
            assert np.array_equal(ref_record.values, packed_record.values)
            assert np.array_equal(ref_record.active, packed_record.active)
            assert ref_record.cycle == packed_record.cycle
            assert vars(ref_machine._request) == vars(packed_machine._request)

    def test_snapshot_restore_and_forces(self):
        machine, count = counter_machine("native")
        machine.reset_sequence(2)
        machine.step()
        snap = machine.snapshot()
        key = machine.state_key()
        machine.step()
        assert machine.state_key() != key
        machine.restore(snap)
        assert machine.state_key() == key
        machine.next_dff_forces = {count[3]: 1}
        machine.step()
        assert machine.peek_bus(count)[0] & 0b1000
        assert machine.next_dff_forces == {}

    def test_values_setter_guarded(self):
        machine, _count = counter_machine("native")
        with pytest.raises(AttributeError):
            machine.values = np.zeros(machine.netlist.n_nets, dtype=np.uint8)


class TestPackedTraceReductions:
    def test_toggled_any_and_counts_match_bool_path(self):
        """The packed reductions must equal the unpacked bool rows'."""
        machine, _count = counter_machine("native")
        trace = Trace(machine.netlist.n_nets)
        machine.reset_sequence(2, trace=trace)
        for _ in range(12):
            machine.step(trace=trace)
        assert trace.bit_order is machine.evaluator.program
        active = trace.active_matrix()
        assert np.array_equal(trace.toggled_any(), active.any(axis=0))
        assert np.array_equal(trace.activity_counts(), active.sum(axis=1))


class TestTraceMatrices:
    @staticmethod
    def packed_trace(n_cycles: int = 6):
        netlist = random_netlist(120, seed=11)
        program = BitplaneEvaluator(netlist).program
        rng = np.random.default_rng(12)
        values = rng.integers(0, 3, size=(n_cycles, netlist.n_nets), dtype=np.uint8)
        active = rng.integers(0, 2, size=(n_cycles, netlist.n_nets)).astype(bool)
        planes = program.pack_values(values)
        words = program.pack_active(active)
        trace = Trace(netlist.n_nets, program)
        for cycle in range(n_cycles):
            rows = np.concatenate(
                [planes[cycle : cycle + 1], words[cycle : cycle + 1, None]], axis=1
            )
            trace.append_rows(rows, [(cycle, 0.0, 0.0)], program)
        return trace, values, active

    def test_packed_matrices_are_the_records_words(self):
        trace, values, active = self.packed_trace()
        planes = trace.values_matrix(packed=True)
        words = trace.active_matrix(packed=True)
        order = trace.bit_order
        assert planes.shape == (len(values), 2, order.n_words)
        assert np.array_equal(planes, order.pack_values(values))
        assert np.array_equal(words, order.pack_active(active))
        assert np.array_equal(trace.values_matrix(), values)
        assert np.array_equal(trace.active_matrix(), active)
        assert np.array_equal(trace[2].values, values[2])
        assert np.array_equal(trace[2].active, active[2])

    def test_unpacked_trace_packs_in_net_order(self):
        """The reference engine packs its rows in plain net order, and
        they unpack to the rows a native machine records."""
        traces = []
        for engine in ("reference", "native"):
            machine, _count = counter_machine(engine)
            traces.append(Trace(machine.netlist.n_nets))
            machine.reset_sequence(2, trace=traces[-1])
            for _ in range(6):
                machine.step(trace=traces[-1])
        plain, packed = traces
        n_nets = plain.n_nets
        assert np.array_equal(plain.bit_order.pos_of, np.arange(n_nets))
        assert plain.bit_order is not packed.bit_order
        assert np.array_equal(plain.values_matrix(), packed.values_matrix())
        assert np.array_equal(plain.active_matrix(), packed.active_matrix())

    def test_empty_trace_matrices(self):
        trace = Trace(9)
        assert trace.values_matrix().shape == (0, 9)
        assert trace.values_matrix(packed=True).shape == (0, 2, 1)
        assert trace.active_matrix(packed=True).shape == (0, 1)
        assert not trace.toggled_any().any()
        assert trace.activity_counts().shape == (0,)


class TestEngineSelection:
    def test_default_engine_env(self, monkeypatch):
        """The default engine reads no environment: the variable that
        once picked it is ignored, valid or not."""
        netlist = random_netlist(120, seed=13)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "native"
        for raw in ("reference", "tables"):
            monkeypatch.setenv("REPRO_ENGINE", raw)
            assert default_engine() == "native"
            assert isinstance(make_evaluator(netlist), NativeEvaluator)

    def test_make_evaluator_types(self):
        netlist = random_netlist(120, seed=13)
        assert isinstance(
            make_evaluator(netlist, "reference"), LevelizedEvaluator
        )
        assert isinstance(make_evaluator(netlist, "native"), NativeEvaluator)
        with pytest.raises(ValueError, match="'native', 'reference'"):
            make_evaluator(netlist, "bitplane")

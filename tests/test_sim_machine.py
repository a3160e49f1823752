"""Machine, evaluator activity rule, trace, and VCD unit tests."""

import numpy as np
import pytest

from repro.logic import ONE, X, ZERO
from repro.netlist import NetlistBuilder
from repro.sim import (
    LevelizedEvaluator,
    Machine,
    MemoryPorts,
    TernaryMemory,
    Trace,
    read_vcd,
    write_vcd,
)


def counter_machine():
    """A 4-bit counter reading/writing nothing: minimal Machine target."""
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
    return Machine(netlist, ports), count


class TestMachine:
    def test_reset_then_count(self):
        machine, count = counter_machine()
        machine.reset_sequence(2)
        values = [machine.peek_bus(count)[0] for _ in range(3) if machine.step() or True]
        assert values == [1, 2, 3]

    def test_snapshot_restore_roundtrip(self):
        machine, count = counter_machine()
        machine.reset_sequence(2)
        machine.step()
        snap = machine.snapshot()
        machine.step()
        machine.step()
        after = machine.peek_bus(count)[0]
        machine.restore(snap)
        assert machine.peek_bus(count)[0] != after
        machine.step()
        machine.step()
        assert machine.peek_bus(count)[0] == after

    def test_state_key_distinguishes_states(self):
        machine, _count = counter_machine()
        machine.reset_sequence(2)
        first = machine.state_key()
        machine.step()
        assert machine.state_key() != first

    def test_next_dff_forces_consumed_once(self):
        machine, count = counter_machine()
        machine.reset_sequence(2)
        dff_net = count[3]
        machine.next_dff_forces = {dff_net: 1}
        machine.step()
        assert machine.peek_bus(count)[0] & 0b1000
        assert machine.next_dff_forces == {}

    def test_trace_records_cycles(self):
        machine, _count = counter_machine()
        trace = Trace(machine.netlist.n_nets)
        machine.reset_sequence(2, trace=trace)
        machine.step(trace=trace)
        assert len(trace) == 3
        assert trace.values_matrix().shape == (3, machine.netlist.n_nets)


class TestActivityRule:
    def build(self):
        nb = NetlistBuilder()
        a = nb.input("a")
        b = nb.input("b")
        y = nb.and_(a, b)
        netlist = nb.finish()
        return netlist, LevelizedEvaluator(netlist), a, b, y

    def test_changed_gate_is_active(self):
        netlist, ev, a, b, y = self.build()
        prev = ev.fresh_values()
        prev[[a, b]] = [1, 0]
        ev.eval_comb(prev)
        cur = prev.copy()
        cur[b] = 1
        ev.eval_comb(cur)
        active = ev.compute_activity(prev, cur)
        assert active[y]

    def test_stable_known_gate_is_idle(self):
        netlist, ev, a, b, y = self.build()
        prev = ev.fresh_values()
        prev[[a, b]] = [1, 1]
        ev.eval_comb(prev)
        active = ev.compute_activity(prev.copy(), prev.copy())
        assert not active[y]

    def test_x_gate_with_active_driver_is_active(self):
        netlist, ev, a, b, y = self.build()
        prev = ev.fresh_values()
        prev[[a, b]] = [X, 0]
        ev.eval_comb(prev)
        cur = prev.copy()
        cur[b] = 1  # b toggles; y goes 0 -> X and is driven by active b
        ev.eval_comb(cur)
        active = ev.compute_activity(prev, cur)
        assert cur[y] == X
        assert active[y]

    def test_x_input_always_counts_active(self):
        netlist, ev, a, b, y = self.build()
        prev = ev.fresh_values()
        prev[[a, b]] = [X, 1]
        ev.eval_comb(prev)
        cur = prev.copy()
        ev.eval_comb(cur)
        active = ev.compute_activity(prev, cur)
        # a is an unconstrained external input: it may toggle any cycle,
        # so the X it feeds through the AND stays potentially-toggling.
        assert active[a]
        assert active[y]


class TestVcd:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 3, size=(7, 5)).astype(np.uint8)
        path = tmp_path / "trace.vcd"
        write_vcd(matrix, path, net_names=[f"sig{i}" for i in range(5)])
        loaded, names = read_vcd(path)
        assert names == [f"sig{i}" for i in range(5)]
        assert np.array_equal(loaded, matrix)

    def test_x_encoding(self, tmp_path):
        matrix = np.array([[ZERO, ONE, X]], dtype=np.uint8)
        path = tmp_path / "x.vcd"
        write_vcd(matrix, path)
        text = path.read_text()
        assert "x" in text

    def test_compact_identifiers_unique(self, tmp_path):
        matrix = np.zeros((1, 200), dtype=np.uint8)
        path = tmp_path / "wide.vcd"
        write_vcd(matrix, path)
        loaded, names = read_vcd(path)
        assert loaded.shape == (1, 200)


class TestTrace:
    def test_toggled_any_unions_activity(self):
        from repro.netlist.program import net_order
        from repro.sim.trace import CycleRecord

        order = net_order(3)
        trace = Trace(3)
        for cycle, flags in enumerate([[True, False, False],
                                       [False, True, False]]):
            trace.append(CycleRecord(
                cycle, order.pack_values(np.zeros(3, np.uint8)),
                order.pack_active(np.array(flags)), cycle, 0, order,
            ))
        flags = trace.toggled_any()
        assert flags.tolist() == [True, True, False]
        assert trace.mem_accesses().tolist() == [[0, 0], [1, 0]]

    def test_one_bit_order_per_trace(self):
        """An empty trace takes its first record's bit order; a record
        in another order is refused."""
        from repro.netlist.program import NetOrder
        from repro.sim.trace import CycleRecord

        def record(order):
            return CycleRecord(
                0, order.pack_values(np.zeros(3, np.uint8)),
                order.pack_active(np.zeros(3, bool)), 0, 0, order,
            )

        first, other = NetOrder(3), NetOrder(3)
        trace = Trace(3)
        trace.append(record(first))
        assert trace.bit_order is first
        with pytest.raises(ValueError, match="one bit order"):
            trace.append(record(other))

"""Power model, cell library, and design-tool baseline tests."""

from fractions import Fraction

import numpy as np
import pytest

from repro.bench.suite import get_benchmark
from repro.cells import SG65, SG130
from repro.core.activity import explore
from repro.core.peakpower import _max_planes, _plane_stack
from repro.netlist import NetlistBuilder
from repro.power import PowerModel, design_tool_rating
from repro.power.model import (
    DEFAULT_MODULE_ENERGY_SCALE, _scale_for, assign_planes, price_numpy,
)


def tiny_netlist():
    nb = NetlistBuilder("tiny")
    with nb.module("alpha"):
        a = nb.input("a")
        b = nb.input("b")
        y = nb.and_(a, b)
    with nb.module("beta"):
        q = nb.register(1, "q")
        nb.connect_register(q, [y])
    return nb.finish(), a, b, y, q[0]


class TestCellLibrary:
    def test_all_gate_kinds_characterized(self):
        for kind in ("NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR",
                     "MUX", "DFF"):
            assert kind in SG65
            assert SG65[kind].max_transition_energy_fj() > 0

    def test_max_power_transition_prefers_expensive_edge(self):
        for kind in SG65.kinds():
            cell = SG65[kind]
            prev, cur = cell.max_power_transition()
            assert cell.transition_energy_fj(cur == 1) == (
                cell.max_transition_energy_fj()
            )

    def test_sources_have_no_energy(self):
        assert SG65.cell_for_gate("INPUT").e_rise_fj == 0
        assert SG65.cell_for_gate("CONST0").leakage_nw == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            SG65.cell_for_gate("LATCH")

    def test_sg130_scales_up_energy(self):
        assert SG130["AND"].e_rise_fj > SG65["AND"].e_rise_fj
        assert SG130["AND"].leakage_nw < SG65["AND"].leakage_nw


class TestScaleLookup:
    def test_prefix_matching(self):
        scale_map = {"exec_unit/alu": 0.5, "exec_unit": 0.9}
        assert _scale_for("exec_unit/alu", scale_map) == 0.5
        assert _scale_for("exec_unit/alu/adder", scale_map) == 0.5
        assert _scale_for("exec_unit/regfile", scale_map) == 0.9
        assert _scale_for("frontend", scale_map) == 1.0

    def test_no_partial_name_match(self):
        assert _scale_for("execute", {"exec": 0.5}) == 1.0


class TestTracePower:
    def test_no_transitions_means_floor_power(self):
        netlist, a, b, y, q = tiny_netlist()
        model = PowerModel(netlist, SG65, clock_ns=10.0)
        values = np.zeros((3, netlist.n_nets), dtype=np.uint8)
        trace = model.trace_power(values)
        floor = (
            model.clock_pin_fj + SG65.mem_idle_fj
        ) / 10.0 * 1e-3 + model.leakage_mw
        assert np.allclose(trace.total_mw, floor)

    def test_single_toggle_energy(self):
        netlist, a, b, y, q = tiny_netlist()
        model = PowerModel(netlist, SG65, clock_ns=10.0)
        values = np.zeros((2, netlist.n_nets), dtype=np.uint8)
        values[1, y] = 1  # one AND rising edge
        trace = model.trace_power(values)
        delta = trace.total_mw[1] - trace.total_mw[0]
        assert delta == pytest.approx(SG65["AND"].e_rise_fj / 10.0 * 1e-3)

    def test_fall_cheaper_than_rise(self):
        netlist, a, b, y, q = tiny_netlist()
        model = PowerModel(netlist, SG65, clock_ns=10.0)
        rise = np.zeros((2, netlist.n_nets), dtype=np.uint8)
        rise[1, y] = 1
        fall = np.ones((2, netlist.n_nets), dtype=np.uint8)
        fall[1, y] = 0
        assert (
            model.trace_power(rise).total_mw[1]
            > model.trace_power(fall).total_mw[1]
        )

    def test_mem_accesses_priced_by_library(self):
        netlist, *_ = tiny_netlist()
        model = PowerModel(netlist, SG65, clock_ns=10.0)
        values = np.zeros((2, netlist.n_nets), dtype=np.uint8)
        accesses = np.array([[0.0, 0.0], [1.0, 1.0]])
        trace = model.trace_power(values, accesses)
        delta = trace.total_mw[1] - trace.total_mw[0]
        expected = (SG65.mem_read_energy_fj + SG65.mem_write_energy_fj) / 10e3
        assert delta == pytest.approx(expected)

    def test_module_breakdown_sums_to_total(self):
        netlist, a, b, y, q = tiny_netlist()
        model = PowerModel(netlist, SG65, clock_ns=10.0)
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2, size=(6, netlist.n_nets)).astype(np.uint8)
        accesses = np.ones((6, 2))
        trace = model.trace_power(values, accesses, per_module=True)
        recombined = sum(trace.module_mw.values()) + model.leakage_mw
        assert np.allclose(recombined, trace.total_mw, atol=1e-9)

    def test_power_trace_statistics(self):
        netlist, *_ = tiny_netlist()
        model = PowerModel(netlist, SG65)
        values = np.zeros((4, netlist.n_nets), dtype=np.uint8)
        trace = model.trace_power(values)
        assert trace.peak() == pytest.approx(trace.average())
        assert trace.energy_pj() == pytest.approx(
            trace.total_mw.sum() * trace.clock_ns
        )


@pytest.fixture(scope="module")
def ulp_model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def price_both(tables, prev, cur):
    """The C and the numpy pricer's aJ blocks for the same plane pairs
    (each starts from garbage, so both must overwrite every cell)."""
    rows = prev.shape[1]
    blocks = [
        np.full((rows, tables.n_cols), -7, dtype=np.int64) for _ in range(2)
    ]
    values = np.concatenate([prev, cur], axis=1).transpose(1, 0, 2)
    tables.native(values, (np.arange(rows), rows + np.arange(rows)), blocks[0])
    price_numpy(tables, prev, cur, blocks[1])
    return blocks


def random_planes(rng, rows: int, n_words: int) -> np.ndarray:
    """Rail-major (2, rows, n_words) P/N rows of random valid trits — X
    included — over every bit, pads too."""
    p = rng.integers(0, 2**64, size=(rows, n_words), dtype=np.uint64)
    n = rng.integers(0, 2**64, size=(rows, n_words), dtype=np.uint64) | ~p
    return np.stack([p, n])


def parity_stacks(tree, model):
    """``(order, [(prev, cur)] per parity)``: Algorithm 2's X-assigned
    target pairs, whole parities at a time."""
    order, values, active, pred, local = _plane_stack(tree)
    max_prev, max_cur = _max_planes(model, order)
    stacks = []
    for parity in (1, 0):
        targets = np.flatnonzero(local % 2 == parity)
        stacks.append(assign_planes(
            values[pred[targets]].transpose(1, 0, 2),
            values[targets].transpose(1, 0, 2),
            active[targets], max_prev, max_cur,
        ))
    return order, stacks


#: the seven forking Table 4.1 kernels
MULTIPATH = ("Viterbi", "inSort", "tHold", "binSearch", "div", "rle", "PI")


def assign_price_both(model, order, values, active, pred, target):
    """The C entry's aJ block for Algorithm 2's (pred, target) row pairs,
    and assign_planes + price_numpy's (both start from garbage)."""
    tables = model.bit_tables(order)
    assert tables.native is not None, "the C pricer did not load"
    max_prev, max_cur = _max_planes(model, order)
    blocks = [
        np.full((len(target), tables.n_cols), -7, dtype=np.int64)
        for _ in range(2)
    ]
    tables.native(values, (pred, target), blocks[0], (active, max_prev, max_cur))
    prev, cur = assign_planes(
        values[pred].transpose(1, 0, 2), values[target].transpose(1, 0, 2),
        active[target], max_prev, max_cur,
    )
    price_numpy(tables, prev, cur, blocks[1])
    return blocks


class TestAssignPriceKernel:
    """repro_price with activity words (X-assigning each pair) ≡
    assign_planes + price_numpy, integer for integer."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_x_heavy_rows(self, cpu, ulp_model, seed):
        program = cpu.evaluator_for(None).program
        rng = np.random.default_rng(seed)
        n, n_words = 40, program.n_words

        def bits(k=1):  # each bit set with probability 1 - 2**-k
            word = np.zeros((n, n_words), dtype=np.uint64)
            for _ in range(k):
                word |= rng.integers(0, 2**64, size=(n, n_words), dtype=np.uint64)
            return word

        # rows laid out as a flat trace holds them: (n, 3, n_words), P/N
        # then A; X (P & N) on over half the bits
        block = np.empty((n, 3, n_words), dtype=np.uint64)
        block[:, 0] = bits(2)
        block[:, 1] = bits(2) | ~block[:, 0]
        block[:, 2] = bits()
        # the root's self-predecessor, repeated predecessors, repeats
        target = np.concatenate([[0], rng.integers(0, n, 150), [5, 5]])
        pred = np.concatenate([[0], rng.choice([3, 7, 11], 150), [5, 4]])
        c, ref = assign_price_both(
            ulp_model, program, block[:, 0:2], block[:, 2], pred, target
        )
        assert np.array_equal(c, ref)
        assert np.array_equal(c[:, 1:].sum(axis=1), c[:, 0])
        assert c[:, 0].all()

    @pytest.mark.parametrize("name", MULTIPATH)
    def test_every_multipath_tree(self, cpu, ulp_model, name):
        benchmark = get_benchmark(name)
        tree = explore(
            cpu, benchmark.program(), max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments,
        )
        assert len(tree.segments) > 1
        order, values, active, pred, local = _plane_stack(tree)
        for parity in (1, 0):
            targets = np.flatnonzero(local % 2 == parity)
            c, ref = assign_price_both(
                ulp_model, order, values, active, pred[targets], targets
            )
            assert np.array_equal(c, ref), (name, parity)

    def test_indices_outside_the_rows_are_refused(self, cpu, ulp_model):
        program = cpu.evaluator_for(None).program
        tables = ulp_model.bit_tables(program)
        planes = np.zeros((4, 3, program.n_words), dtype=np.uint64)
        max_prev, max_cur = _max_planes(ulp_model, program)
        out = np.zeros((1, tables.n_cols), dtype=np.int64)
        with pytest.raises(ValueError, match="row pairs within"):
            tables.native(
                planes[:, 0:2], ([0], [4]), out, (planes[:, 2], max_prev, max_cur)
            )


class TestExactPricing:
    """One integer pricing kernel: C ≡ numpy ≡ exact rational sums."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 200])
    def test_c_equals_numpy_on_random_planes(self, cpu, ulp_model, rows):
        program = cpu.evaluator_for(None).program
        tables = ulp_model.bit_tables(program)
        assert tables.native is not None, "the C pricer did not load"
        rng = np.random.default_rng(rows)
        prev = random_planes(rng, rows, program.n_words)
        cur = random_planes(rng, rows, program.n_words)
        cur[:, ::3] = prev[:, ::3]  # rows without a single edge
        c, n = price_both(tables, prev, cur)
        assert np.array_equal(c, n)
        assert np.array_equal(c[::3], np.zeros_like(c[::3]))
        assert np.array_equal(c[:, 1:].sum(axis=1), c[:, 0])

    def test_strided_rows_price_like_contiguous(self, cpu, ulp_model):
        """The P/N rows of a trace's (rows, 3, n_words) block — what the
        trace path hands the kernel — price like a compact copy."""
        program = cpu.evaluator_for(None).program
        tables = ulp_model.bit_tables(program)
        rng = np.random.default_rng(5)
        block = np.zeros((9, 3, program.n_words), dtype=np.uint64)
        block[:, 0:2] = random_planes(rng, 9, program.n_words).transpose(1, 0, 2)
        pairs = (np.arange(8), np.arange(1, 9))
        blocks = [np.zeros((8, tables.n_cols), dtype=np.int64) for _ in range(2)]
        for values, out in zip((block[:, 0:2], block[:, 0:2].copy()), blocks):
            tables.native(values, pairs, out)
        compact = block[:, 0:2].transpose(1, 0, 2)
        assert np.array_equal(blocks[0], blocks[1])
        for priced in price_both(tables, compact[:, :-1], compact[:, 1:]):
            assert np.array_equal(priced, blocks[0])

    @pytest.mark.parametrize("name", ["mult", "inSort"])
    def test_totals_equal_fraction_sums(self, cpu, ulp_model, name):
        """Every Algorithm-2 row total is the exact rational sum of the
        library's decimal cell energies times the module scale."""
        benchmark = get_benchmark(name)
        tree = explore(
            cpu, benchmark.program(), max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments,
        )
        energy = {}  # net -> (rise, fall) in aJ, as Fractions
        for gate in cpu.netlist.gates:
            cell = SG65.cell_for_gate(gate.kind)
            scale = Fraction(str(_scale_for(gate.module, DEFAULT_MODULE_ENERGY_SCALE)))
            energy[gate.index] = tuple(
                Fraction(str(e)) * scale * 1000
                for e in (cell.e_rise_fj, cell.e_fall_fj)
            )
        classes = sorted({e for pair in energy.values() for e in pair})
        rise_class = np.array([classes.index(energy[i][0]) for i in sorted(energy)])
        fall_class = np.array([classes.index(energy[i][1]) for i in sorted(energy)])
        order, stacks = parity_stacks(tree, ulp_model)
        tables = ulp_model.bit_tables(order)
        for prev, cur in stacks:
            c, n = price_both(tables, prev, cur)
            assert np.array_equal(c, n)
            assert np.array_equal(c[:, 1:].sum(axis=1), c[:, 0])
            before = order.unpack_trits(prev[0], prev[1])
            after = order.unpack_trits(cur[0], cur[1])
            toggled = before != after
            counts = np.zeros((len(after), len(classes)), dtype=np.int64)
            for edges, net_class in (
                (toggled & (after != 0), rise_class),
                (toggled & (after == 0), fall_class),
            ):
                rows, nets = np.nonzero(edges)
                np.add.at(counts, (rows, net_class[nets]), 1)
            for row, total_aj in enumerate(c[:, 0]):
                exact = sum(
                    (int(k) * e for k, e in zip(counts[row], classes)),
                    Fraction(0),
                )
                assert exact == total_aj, (name, row)

    def test_numpy_pricer_path_equals_c_path(self, cpu, ulp_model):
        """Whole pipeline, row count off the chunk grid: a model whose
        tables have no C pricer gives the same floats."""
        benchmark = get_benchmark("mult")
        tree = explore(cpu, benchmark.program())
        order, [(prev, cur), _] = parity_stacks(tree, ulp_model)
        assert prev.shape[1] % PowerModel.TRACE_CHUNK_ROWS
        numpy_model = PowerModel(cpu.netlist, SG65, clock_ns=10.0)
        numpy_model.bit_tables(order).native = None
        traces = [
            model.transition_power(
                prev.transpose(1, 0, 2), cur.transpose(1, 0, 2),
                per_module=True, bit_order=order,
            )
            for model in (ulp_model, numpy_model)
        ]
        assert np.array_equal(traces[0].total_mw, traces[1].total_mw)
        for module, series in traces[0].module_mw.items():
            assert np.array_equal(traces[1].module_mw[module], series), module

    def test_packed_trace_prices_like_trits(self, cpu, ulp_model):
        """A concrete trace priced from its packed words in its own bit
        order equals pricing its unpacked trit rows."""
        from repro.sim.trace import Trace

        benchmark = get_benchmark("mult")
        program = benchmark.program().with_inputs(benchmark.input_sets(1)[0])
        machine = cpu.make_machine(program, symbolic_inputs=False, port_in=0)
        trace = Trace(machine.netlist.n_nets)
        cpu.run_to_halt(machine, max_cycles=5_000, trace=trace)
        assert trace.bit_order is machine.bit_order
        packed = ulp_model.trace_power(
            trace.values_matrix(packed=True), trace.mem_accesses(),
            per_module=True, bit_order=trace.bit_order,
        )
        trits = ulp_model.trace_power(
            trace.values_matrix(), trace.mem_accesses(), per_module=True
        )
        assert len(packed) == len(trace) > PowerModel.TRACE_CHUNK_ROWS
        assert np.array_equal(packed.total_mw, trits.total_mw)
        for module, series in trits.module_mw.items():
            assert np.array_equal(packed.module_mw[module], series), module

    def test_energy_not_whole_attojoules_names_module(self, cpu):
        with pytest.raises(ValueError, match="multiplier.*attojoules"):
            PowerModel(
                cpu.netlist, SG65, module_energy_scale={"multiplier": 1 / 3}
            )


class TestDesignTool:
    def test_rating_scales_with_toggle_rate(self):
        netlist, *_ = tiny_netlist()
        model = PowerModel(netlist, SG65)
        low, _ = design_tool_rating(model, toggle_rate=0.1)
        high, _ = design_tool_rating(model, toggle_rate=0.4)
        assert high > low

    def test_rating_uses_library_default(self):
        netlist, *_ = tiny_netlist()
        model = PowerModel(netlist, SG65)
        explicit, _ = design_tool_rating(
            model, toggle_rate=SG65.default_toggle_rate
        )
        implicit, _ = design_tool_rating(model)
        assert explicit == pytest.approx(implicit)

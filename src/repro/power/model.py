"""Per-cycle power computation from value traces.

Power in cycle *c* is the energy of every output transition between cycles
*c-1* and *c* (per-cell rise/fall energies from the library), plus the
behavioral memory access energy, divided by the clock period, plus leakage:

    P(c) = (sum_g E_trans(g, dir) + E_mem(c)) / T_clk + P_leak

Units: energies in femtojoules, clock in nanoseconds, power in milliwatts
(1 fJ/ns = 1 uW).  Per-module breakdowns use the netlist's top-level module
tags, matching the paper's figures.

The transition sum is exact.  Every per-net energy (cell energy times
module scale) is a whole number of attojoules — the model refuses one
that is not — so rows are priced in int64 aJ straight from packed
dual-rail P/N words: the rising and falling edge words of each
``(previous, current)`` row pair (:func:`edge_planes`) select the bits
whose energies are summed, in total and per module.  The native
:class:`repro.sim.native.Pricer` does this with a set-bit walk in one
entry, ``repro_price``: it reads ``(pred, target)`` row pairs in place
and, given the target's activity words (Algorithm 2; none for a plain
trace), X-assigns each pair on the way.  Without a C compiler,
:func:`price_numpy` (after :func:`assign_planes` for Algorithm 2) is
the path and the oracle.  Integer sums do not
depend on their order, so all give the same integers at any block size
and under any numpy.  Floats are made once, in
:meth:`PowerModel._assemble_power`, where the fJ total (aJ / 1000) meets
the memory, clock-pin, idle and leakage terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cells import CellLibrary
from repro.netlist.core import Netlist
from repro.netlist.program import BitOrder, net_order

#: Per-module transition-energy scaling, matched by the longest module-path
#: prefix.  Synthesis maps slack-rich blocks (the multiplier array) to
#: minimum-drive cells, and the register file stands in for a compact
#: custom macro rather than a discrete-mux-tree — without these scalings
#: the gate-count of those structures would dwarf the core and invert the
#: paper's technique ordering.
DEFAULT_MODULE_ENERGY_SCALE = {
    "multiplier": 0.08,
    "exec_unit": 0.45,
    "exec_unit/regfile": 0.25,
    "exec_unit/alu": 0.3,
    "mem_backbone": 0.5,
}


def _attojoules(energy_fj: np.ndarray, netlist: Netlist) -> np.ndarray:
    """Per-net fJ energies as exact int64 attojoules.

    Raises ``ValueError`` naming the module of the first net whose energy
    is not a whole number of aJ (within 1e-6 aJ).
    """
    scaled = energy_fj * 1000
    aj = np.rint(scaled)
    off = np.flatnonzero(np.abs(scaled - aj) > 1e-6)
    if off.size:
        gate = netlist.gates[off[0]]
        raise ValueError(
            f"module {gate.module or 'misc'!r}: {gate.kind} transition "
            f"energy {energy_fj[off[0]]!r} fJ is not a whole number of "
            "attojoules"
        )
    return aj.astype(np.int64)


def _scale_for(module: str, scale_map: dict[str, float]) -> float:
    """Longest-prefix lookup of *module* in *scale_map*."""
    best_len = -1
    best = 1.0
    for prefix, scale in scale_map.items():
        if module == prefix or module.startswith(prefix + "/"):
            if len(prefix) > best_len:
                best_len = len(prefix)
                best = scale
    return best


@dataclass
class PowerTrace:
    """Per-cycle total power plus per-module breakdown, all in mW."""

    total_mw: np.ndarray
    module_mw: dict[str, np.ndarray] = field(default_factory=dict)
    leakage_mw: float = 0.0
    clock_ns: float = 10.0

    def __len__(self) -> int:
        return len(self.total_mw)

    def peak(self) -> float:
        return float(self.total_mw.max()) if len(self.total_mw) else 0.0

    def peak_cycle(self) -> int:
        return int(self.total_mw.argmax())

    def average(self) -> float:
        return float(self.total_mw.mean()) if len(self.total_mw) else 0.0

    def energy_pj(self) -> float:
        """Total energy of the trace in picojoules."""
        return float(self.total_mw.sum() * self.clock_ns)

    def energy_per_cycle_pj(self) -> float:
        return self.energy_pj() / max(len(self.total_mw), 1)

    def top_modules(self, cycle: int, count: int = 8) -> list[tuple[str, float]]:
        """Module power ranking at *cycle* — the §3.5 COI breakdown."""
        ranking = sorted(
            ((name, float(series[cycle])) for name, series in self.module_mw.items()),
            key=lambda item: -item[1],
        )
        return ranking[:count]


class PowerModel:
    """Characterizes one netlist against one cell library."""

    def __init__(
        self,
        netlist: Netlist,
        library: CellLibrary,
        clock_ns: float = 10.0,
        module_energy_scale: dict[str, float] | None = None,
    ):
        self.netlist = netlist
        self.library = library
        self.clock_ns = clock_ns
        scale_map = (
            DEFAULT_MODULE_ENERGY_SCALE
            if module_energy_scale is None
            else module_energy_scale
        )

        n = netlist.n_nets
        self.e_rise = np.zeros(n)
        self.e_fall = np.zeros(n)
        self.max_prev = np.zeros(n, dtype=np.uint8)
        self.max_cur = np.ones(n, dtype=np.uint8)
        leakage_nw = 0.0
        self.module_clk_fj: dict[str, float] = {}
        for gate in netlist.gates:
            cell = library.cell_for_gate(gate.kind)
            top = gate.module.split("/", 1)[0] if gate.module else "misc"
            scale = _scale_for(gate.module, scale_map)
            self.e_rise[gate.index] = cell.e_rise_fj * scale
            self.e_fall[gate.index] = cell.e_fall_fj * scale
            prev, cur = cell.max_power_transition()
            self.max_prev[gate.index] = prev
            self.max_cur[gate.index] = cur
            leakage_nw += cell.leakage_nw
            if cell.e_clk_fj:
                self.module_clk_fj[top] = (
                    self.module_clk_fj.get(top, 0.0) + cell.e_clk_fj * scale
                )
        leakage_nw += library.mem_leakage_nw
        self.leakage_mw = leakage_nw * 1e-6
        #: Clock-pin energy burned every cycle by the sequential cells —
        #: input-independent, so it raises bound and measurement equally.
        self.clock_pin_fj = sum(self.module_clk_fj.values())

        #: the priced transition energies, in exact int64 attojoules
        self.e_rise_aj = _attojoules(self.e_rise, netlist)
        self.e_fall_aj = _attojoules(self.e_fall, netlist)

        self.module_masks: dict[str, np.ndarray] = {}
        #: each net's column in a priced block: 1 + its module's position
        #: in :attr:`module_masks`, 0 for none (sources, which cost nothing)
        self.module_col = np.zeros(n, dtype=np.int32)
        for column, (name, indices) in enumerate(
            netlist.gates_by_top_module().items(), start=1
        ):
            mask = np.zeros(n, dtype=bool)
            mask[indices] = True
            self.module_masks[name] = mask
            self.module_col[mask] = column
        self._bit_tables: dict[BitOrder, BitTables] = {}

    def bit_tables(self, order: BitOrder) -> "BitTables":
        """This model's pricing tables in *order*, built once."""
        tables = self._bit_tables.get(order)
        if tables is None:
            tables = self._bit_tables[order] = BitTables(self, order)
        return tables

    # ------------------------------------------------------------------
    # Activity statistics
    # ------------------------------------------------------------------
    def activity_profile(self, trace) -> dict:
        """Per-cycle activity statistics of a simulation trace.

        The counts come straight from the packed activity words
        (``np.bitwise_count`` over uint64 planes, 64 nets per word;
        reference traces are packed once in net order).  Every engine
        counts the same paper-defined active set, so the stats are
        engine-independent — the perf harness records them per
        benchmark as a cheap cross-engine consistency signal.
        """
        counts = trace.activity_counts()
        toggled = trace.toggled_any()
        n_cells = len(self.netlist.cell_gate_indices())
        return {
            "mean_active_nets": round(float(counts.mean()), 1) if len(counts) else 0.0,
            "max_active_nets": int(counts.max()) if len(counts) else 0,
            "toggled_nets": int(toggled.sum()),
            "cell_count": n_cells,
        }

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------
    def mem_energy_fj(self, mem_accesses: np.ndarray | None) -> np.ndarray | None:
        """Price a (n_cycles, 2) [reads, writes] matrix with the library."""
        if mem_accesses is None:
            return None
        return (
            mem_accesses[:, 0] * self.library.mem_read_energy_fj
            + mem_accesses[:, 1] * self.library.mem_write_energy_fj
        )

    #: rows per block of the numpy pricer, the no-compiler path: only a
    #: memory bound on its unpacked edge bits.  The C entries read their
    #: rows in place and price any row count in one call; integer sums
    #: make every block size give the same result.
    TRACE_CHUNK_ROWS = 64

    def _assemble_power(
        self,
        aj: np.ndarray,
        mem_accesses: np.ndarray | None,
        per_module: bool,
    ) -> PowerTrace:
        """Fold memory/clock/leakage into the priced ``(rows, 1 +
        n_modules)`` aJ block; convert to mW."""
        n_rows = len(aj)
        totals = aj[:, 0] / 1000  # fJ
        mem_energy_fj = self.mem_energy_fj(mem_accesses)
        if mem_energy_fj is not None:
            totals = totals + mem_energy_fj
        totals = totals + self.clock_pin_fj + self.library.mem_idle_fj
        total_mw = totals / self.clock_ns * 1e-3 + self.leakage_mw
        module_mw: dict[str, np.ndarray] = {}
        if per_module:
            for column, name in enumerate(self.module_masks, start=1):
                series = aj[:, column] / 1000 + self.module_clk_fj.get(name, 0.0)
                module_mw[name] = series / self.clock_ns * 1e-3
            mem_series = np.full(n_rows, self.library.mem_idle_fj)
            if mem_energy_fj is not None:
                mem_series = mem_series + mem_energy_fj
            module_mw["mem_backbone"] = module_mw.get(
                "mem_backbone", np.zeros(n_rows)
            ) + mem_series / self.clock_ns * 1e-3
        return PowerTrace(
            total_mw=total_mw,
            module_mw=module_mw,
            leakage_mw=self.leakage_mw,
            clock_ns=self.clock_ns,
        )

    def _packed(self, rows: np.ndarray, bit_order: BitOrder | None):
        """``(order, (n, 2, n_words) planes)`` of uint8 trit rows in net
        order (*bit_order* ``None``: packed once in plain net order) or of
        P/N plane rows already in *bit_order*."""
        if bit_order is None:
            bit_order = net_order(self.netlist.n_nets)
            rows = bit_order.pack_values(rows)
        return bit_order, rows

    def trace_power(
        self,
        values_matrix: np.ndarray,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        bit_order: BitOrder | None = None,
    ) -> PowerTrace:
        """Power trace for a fully (or partially) resolved value matrix.

        *values_matrix* is ``(n_cycles, n_nets)`` uint8 trits in net order
        or, with *bit_order*, ``(n_cycles, 2, n_words)`` P/N planes in that
        order — what ``Trace.values_matrix(packed=True)`` returns with
        ``trace.bit_order``.  Transitions into or out of X count as
        transitions (rising when the new value can be 1) — conservative
        for the few never-initialized nets of a concrete run; the symbolic
        flows resolve Xs before calling this.  Row 0 has no previous row
        and prices 0.
        """
        order, rows = self._packed(values_matrix, bit_order)
        cur = np.arange(len(rows))
        pairs = (np.maximum(cur - 1, 0), cur)
        return self._power(
            partial(price_rows, values=rows, pairs=pairs), len(rows),
            mem_accesses, per_module, order,
        )

    def transition_power(
        self,
        prev_rows: np.ndarray,
        cur_rows: np.ndarray,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        bit_order: BitOrder | None = None,
    ) -> PowerTrace:
        """Power of explicit ``(previous, current)`` value-row pairs.

        Row *i* prices the transition ``prev_rows[i] -> cur_rows[i]`` —
        same kernel, constants, and exact sums as :meth:`trace_power`
        (and the same row layouts), but over an arbitrary subset of a
        trace's rows.
        """
        order, prev = self._packed(prev_rows, bit_order)
        _, cur = self._packed(cur_rows, bit_order)
        n = len(cur)
        pairs = (np.arange(n), n + np.arange(n))
        return self.pair_power(
            partial(price_rows, values=np.concatenate([prev, cur]), pairs=pairs),
            n, mem_accesses, per_module, order,
        )

    def pair_power(
        self,
        price,
        n_rows: int,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        bit_order: BitOrder | None = None,
    ) -> PowerTrace:
        """Power of *n_rows* row pairs that ``price(tables, out)`` prices.

        *price* writes the exact aJ sums of every pair into the zeroed
        ``(n_rows, 1 + n_modules)`` int64 block *out* with this model's
        :class:`BitTables` in *bit_order* (a
        :class:`~repro.netlist.program.BitOrder`; ``None`` is plain net
        order) — :func:`price_rows` over a trace's rows, X-assigning
        them first for Algorithm 2 (:mod:`repro.core.peakpower`).
        """
        if bit_order is None:
            bit_order = net_order(self.netlist.n_nets)
        return self._power(price, n_rows, mem_accesses, per_module, bit_order)

    def _power(self, price, n_rows, mem_accesses, per_module, bit_order):
        """Price *n_rows* rows into one int64 aJ block, then fold in
        memory, clock and leakage."""
        tables = self.bit_tables(bit_order)
        aj = np.zeros((n_rows, tables.n_cols), dtype=np.int64)
        price(tables, aj)
        return self._assemble_power(aj, mem_accesses, per_module)


class BitTables:
    """A model's per-bit pricing tables in one bit order.

    ``e_rise``/``e_fall`` hold each bit's transition energies in int64
    attojoules and ``col`` its column in a priced block (1 + module, 0
    for none); pads are 0 in all three.  ``native`` is the C pricer bound
    to them, or ``None`` when the native kernels are unavailable.
    """

    def __init__(self, model: PowerModel, order: BitOrder):
        from repro.sim import native

        self.e_rise = np.zeros(order.n_bits, dtype=np.int64)
        self.e_fall = np.zeros(order.n_bits, dtype=np.int64)
        self.col = np.zeros(order.n_bits, dtype=np.int32)
        self.e_rise[order.pos_of] = model.e_rise_aj
        self.e_fall[order.pos_of] = model.e_fall_aj
        self.col[order.pos_of] = model.module_col
        self.n_cols = 1 + len(model.module_masks)
        self.native = native.pricer(
            self.e_rise, self.e_fall, self.col, self.n_cols
        )


def price_rows(
    tables: BitTables, out: np.ndarray, *, values, pairs, assign=None
) -> None:
    """Price the row pairs ``(values[pred[r]], values[target[r]])`` of the
    ``(n, 2, n_words)`` P/N rows *values*, for the ``(pred, target)`` row
    indices *pairs*, into the ``(rows, n_cols)`` int64 block *out*.

    *assign* ``(active, max_prev, max_cur)`` X-assigns each pair first by
    :func:`assign_planes`' rules (Algorithm 2).  The C pricer does it all
    in one call, reading the rows in place; without it,
    :func:`assign_planes` and :func:`price_numpy` take one
    :attr:`PowerModel.TRACE_CHUNK_ROWS` block at a time.
    """
    if tables.native is not None:
        tables.native(values, pairs, out, assign)
        return
    for start in range(0, len(out), PowerModel.TRACE_CHUNK_ROWS):
        span = slice(start, start + PowerModel.TRACE_CHUNK_ROWS)
        prev, cur = (values[side[span]].transpose(1, 0, 2) for side in pairs)
        if assign is not None:
            active, *maxes = assign
            prev, cur = assign_planes(prev, cur, active[pairs[1][span]], *maxes)
        price_numpy(tables, prev, cur, out[span])


def assign_planes(
    prev: np.ndarray,
    cur: np.ndarray,
    active: np.ndarray,
    max_prev: np.ndarray,
    max_cur: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """X-assign (predecessor, target) row pairs on dual-rail planes.

    :func:`maximize_parity`'s rules as word-wise bit ops over rail-major
    ``(2, rows, n_words)`` P/N planes, with the targets' ``(rows,
    n_words)`` activity words and the packed P words of the model's
    ``max_prev``/``max_cur`` (1 where the max-power transition starts or
    ends at 1).  X is ``P & N``.  In an active bit, X on both sides takes
    the max-power transition; X on one side becomes the rail swap of the
    known other side, completing a toggle.  Assigning only resolves an X
    (1, 1) to 0 (0, 1) or 1 (1, 0), so every rule just clears a rail.
    Returns the assigned ``(prev, cur)`` copies.
    """
    prev_p, prev_n = prev
    cur_p, cur_n = cur
    prev_x = prev_p & prev_n
    cur_x = cur_p & cur_n
    both = active & prev_x & cur_x
    only_cur = active & cur_x & ~prev_x
    only_prev = active & prev_x & ~cur_x
    new_prev = np.stack([
        prev_p & ~((only_prev & ~cur_n) | (both & ~max_prev)),
        prev_n & ~((only_prev & ~cur_p) | (both & max_prev)),
    ])
    new_cur = np.stack([
        cur_p & ~((only_cur & ~prev_n) | (both & ~max_cur)),
        cur_n & ~((only_cur & ~prev_p) | (both & max_cur)),
    ])
    return new_prev, new_cur


def price_numpy(
    tables: BitTables, prev: np.ndarray, cur: np.ndarray, out: np.ndarray
) -> None:
    """The numpy pricer: what ``repro_price`` computes, by unpacking.

    Prices rail-major ``(2, rows, n_words)`` ``(prev, cur)`` P/N planes
    into the ``(rows, n_cols)`` int64 block *out*: each edge plane is
    unpacked, and the aJ energy of every set bit is scatter-added into
    its row's column.  Column 0 is the total: the bits of no module plus
    every module's sum.  The no-compiler path, and the C kernels' oracle.
    """
    n_rows, n_cols = out.shape
    sums = np.zeros(n_rows * n_cols, dtype=np.int64)
    for words, energy in zip(edge_planes(prev, cur), (tables.e_rise, tables.e_fall)):
        bits = np.unpackbits(
            np.ascontiguousarray(words).view(np.uint8), axis=-1,
            bitorder="little",
        ).view(bool)
        # set bits in row-major order: row r's come count(r) at a time
        flat = np.flatnonzero(bits)
        rows = np.repeat(np.arange(n_rows), np.count_nonzero(bits, axis=1))
        pos = flat - rows * bits.shape[1]
        np.add.at(sums, rows * n_cols + tables.col[pos], energy[pos])
    out[...] = sums.reshape(n_rows, n_cols)
    out[:, 0] += out[:, 1:].sum(axis=1)


def edge_planes(
    prev: np.ndarray, cur: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rising and falling edge words of rail-major ``(2, ..., n_words)``
    dual-rail P/N plane rows.

    ``tog = (Pp ^ Pc) | (Np ^ Nc)`` marks the bits whose trit differs
    (X included); an edge rises where the current trit can be 1 (P set:
    1 or X) and falls where it is 0 — exactly the trit rules
    ``prev != cur``, ``cur != 0`` and ``cur == 0``.  Pads are known 0 in
    both rows and never toggle.
    """
    tog = (prev[0] ^ cur[0]) | (prev[1] ^ cur[1])
    return tog & cur[0], tog & ~cur[0]


def design_tool_rating(
    model: PowerModel,
    toggle_rate: float | None = None,
    mem_access_rate: float = 1.0,
) -> tuple[float, float]:
    """The design-specification baseline (Figure 1.4, "design tool").

    Emulates rating the design with the tool's default switching activity:
    every cell toggles with probability *toggle_rate* each cycle at its
    worst-case transition energy, and the memory is accessed every cycle.
    Returns ``(peak_power_mw, energy_per_cycle_pj)``.
    """
    library = model.library
    rate = library.default_toggle_rate if toggle_rate is None else toggle_rate
    worst = np.maximum(model.e_rise, model.e_fall)
    switching_fj = rate * worst.sum()
    mem_fj = mem_access_rate * library.mem_read_energy_fj
    power_mw = (
        switching_fj + mem_fj + model.clock_pin_fj + library.mem_idle_fj
    ) / model.clock_ns * 1e-3 + model.leakage_mw
    energy_pj = power_mw * model.clock_ns
    return power_mw, energy_pj

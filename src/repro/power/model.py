"""Per-cycle power computation from value traces.

Power in cycle *c* is the energy of every output transition between cycles
*c-1* and *c* (per-cell rise/fall energies from the library), plus the
behavioral memory access energy, divided by the clock period, plus leakage:

    P(c) = (sum_g E_trans(g, dir) + E_mem(c)) / T_clk + P_leak

Units: energies in femtojoules, clock in nanoseconds, power in milliwatts
(1 fJ/ns = 1 uW).  Per-module breakdowns use the netlist's top-level module
tags, matching the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells import CellLibrary
from repro.netlist.core import Netlist

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

        self.module_masks: dict[str, np.ndarray] = {}
        for name, indices in netlist.gates_by_top_module().items():
            mask = np.zeros(n, dtype=bool)
            mask[indices] = True
            self.module_masks[name] = mask
        #: per-module net columns and compacted transition-energy weights:
        #: a module's energy in one cycle is ``rising[:, cols] . w_rise``
        #: + ``falling[:, cols] . w_fall`` — modules partition the nets,
        #: so compacted dots cost one full-width pass across *all* modules
        #: instead of one per module.
        self._module_cols = {
            name: np.flatnonzero(mask)
            for name, mask in self.module_masks.items()
        }
        self._module_rise_w = {
            name: self.e_rise[cols] for name, cols in self._module_cols.items()
        }
        self._module_fall_w = {
            name: self.e_fall[cols] for name, cols in self._module_cols.items()
        }

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

    #: rows per transition-energy chunk in :meth:`trace_power` and
    #: :meth:`pair_power`.  Bounds the (chunk, n_nets) float64 edge
    #: matrix to about 3 MB on the ULP430, so it is still cache-resident
    #: when the einsums read it back (Algorithm 2 on the multipath trees
    #: ran ~15% faster than at 256 rows, 12 MB, on a 2-core x86-64 host);
    #: chunking is row-wise, so results are bit-identical regardless of
    #: the chunk size.
    TRACE_CHUNK_ROWS = 64

    def _price_chunk(
        self, edges, module_names: list[str]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Transition energies of one chunk: totals + per-module.

        The one pricing kernel.  *edges* yields the chunk's rising, then
        its falling, edge matrix — ``(rows, n_nets)`` float64 0/1 in net
        order; each is priced and dropped before the next is made, so
        only one float chunk is alive at a time (the additions keep
        their order: rising first).  einsum, not ``@``: BLAS matvec
        blocks by matrix shape, so its row sums would depend on how the
        trace was chunked; einsum reduces each row identically whatever
        the chunk height, keeping results bit-identical across engines,
        chunk sizes, and row subsets.
        """
        rising = next(edges)
        totals = np.einsum("cn,n->c", rising, self.e_rise)
        module_fj = {
            name: np.einsum(
                "ck,k->c", rising[:, self._module_cols[name]],
                self._module_rise_w[name],
            )
            for name in module_names
        }
        del rising
        falling = next(edges)
        totals += np.einsum("cn,n->c", falling, self.e_fall)
        for name in module_names:
            module_fj[name] += np.einsum(
                "ck,k->c", falling[:, self._module_cols[name]],
                self._module_fall_w[name],
            )
        return totals, module_fj

    def _assemble_power(
        self,
        totals: np.ndarray,
        module_fj: dict[str, np.ndarray],
        mem_accesses: np.ndarray | None,
        per_module: bool,
    ) -> PowerTrace:
        """Fold memory/clock/leakage into energies; convert to mW."""
        n_rows = len(totals)
        mem_energy_fj = self.mem_energy_fj(mem_accesses)
        if mem_energy_fj is not None:
            totals = totals + mem_energy_fj
        totals = totals + self.clock_pin_fj + self.library.mem_idle_fj
        total_mw = totals / self.clock_ns * 1e-3 + self.leakage_mw
        module_mw: dict[str, np.ndarray] = {}
        if per_module:
            for name, series in module_fj.items():
                series = series + self.module_clk_fj.get(name, 0.0)
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

    def trace_power(
        self,
        values_matrix: np.ndarray,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
    ) -> PowerTrace:
        """Power trace for a fully (or partially) resolved value matrix.

        Transitions into or out of X count as transitions at the rising
        energy — conservative for the few never-initialized nets of a
        concrete run; the symbolic flows resolve Xs before calling this.
        Accepts arbitrarily long traces: the transition-energy matrix is
        reduced in bounded row chunks, never materialized whole.
        """

        def pairs(start: int, stop: int):
            # Row start-1 supplies each chunk row's previous values.
            return values_matrix[start - 1 : stop - 1], values_matrix[start:stop]

        return self._price(pairs, 1, len(values_matrix), mem_accesses, per_module)

    def transition_power(
        self,
        prev_rows: np.ndarray,
        cur_rows: np.ndarray,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
    ) -> PowerTrace:
        """Power of explicit ``(previous, current)`` value-row pairs.

        Row *i* prices the transition ``prev_rows[i] -> cur_rows[i]`` —
        same kernel, constants, and bit-exact results as
        :meth:`trace_power`, but over an arbitrary subset of a trace's
        rows.
        """

        def pairs(start: int, stop: int):
            return prev_rows[start:stop], cur_rows[start:stop]

        return self.pair_power(pairs, len(cur_rows), mem_accesses, per_module)

    def pair_power(
        self,
        pairs,
        n_rows: int,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        bit_order=None,
    ) -> PowerTrace:
        """Like :meth:`transition_power`, but *pulls* each chunk's
        ``(prev, cur)`` row pairs from ``pairs(start, stop)`` instead of
        receiving the full matrices up front.

        The pairs are uint8 trit rows in net order, or — when
        *bit_order* (a :class:`~repro.netlist.program.BitOrder`) is
        given — rail-major ``(2, rows, n_words)`` dual-rail P/N planes
        in that order, whose edges are taken word-wise
        (:func:`edge_planes`) and unpacked one edge matrix at a time.
        Pulling lets a producer
        whose pairs are *derived* (gathered, X-assigned) do that work
        per chunk too: the whole gather → assign → price pipeline then
        runs inside one :attr:`TRACE_CHUNK_ROWS` working set — the
        Algorithm 2 walk in :mod:`repro.core.peakpower` is the customer.
        Chunks cover disjoint row spans and each is priced by the same
        kernel on the same rows whatever the chunk size, so results are
        bit-identical to the eager path (``pairs`` must therefore be
        pure per span, which a gather/assign of disjoint target rows is).
        """
        return self._price(pairs, 0, n_rows, mem_accesses, per_module, bit_order)

    def _price(
        self, pairs, first_row, n_rows, mem_accesses, per_module,
        bit_order=None,
    ) -> PowerTrace:
        """Price rows ``first_row..n_rows`` in TRACE_CHUNK_ROWS-sized
        spans (rows before *first_row* stay 0) and fold in memory, clock
        and leakage.  Chunking is row-wise, so the split never changes
        a result."""
        totals = np.zeros(n_rows)
        module_names = list(self.module_masks) if per_module else []
        module_fj = {name: np.zeros(n_rows) for name in module_names}
        chunk = self.TRACE_CHUNK_ROWS
        for start in range(first_row, n_rows, chunk):
            stop = min(start + chunk, n_rows)
            prev, cur = pairs(start, stop)
            if bit_order is None:
                edges = _trit_edges(prev, cur)
            else:
                edges = _plane_edges(bit_order, prev, cur)
            chunk_totals, chunk_modules = self._price_chunk(edges, module_names)
            totals[start:stop] = chunk_totals
            for name in module_names:
                module_fj[name][start:stop] = chunk_modules[name]
        return self._assemble_power(totals, module_fj, mem_accesses, per_module)


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


def _trit_edges(prev: np.ndarray, cur: np.ndarray):
    """Rising, then falling, edges of uint8 trit rows, as float64."""
    toggled = prev != cur
    yield (toggled & (cur != 0)).astype(np.float64)
    yield (toggled & (cur == 0)).astype(np.float64)


def _plane_edges(bit_order, prev: np.ndarray, cur: np.ndarray):
    """Rising, then falling, edges of P/N plane rows, unpacked to
    net-order float64 one at a time."""
    rise, fall = edge_planes(prev, cur)
    yield bit_order.unpack_bits(rise, np.float64)
    yield bit_order.unpack_bits(fall, np.float64)


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

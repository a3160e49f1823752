"""Lock-step batched simulation of independent machine states.

A :class:`BatchMachine` holds up to B *lanes*, each a complete machine
state (net values, behavioral memory, memory-port registers) loaded from a
:meth:`repro.sim.machine.Machine.snapshot` dict.  One :meth:`step` clocks
every live lane simultaneously; the per-lane parts that stay Python are
the behavioral memory (serve and commit) and the records.

Lane state lives in one row per lane: ``(B, 3, n_words)`` packed P/N/A
planes on the native engine (``values`` uint8 rows on the reference
engine).  How a step settles them depends on the engine:

* **native**: one foreign call per step
  (:class:`~repro.sim.native.BatchKernel`) on a lane-sliced copy of the
  batch — DFF loads, port forcing, settle, activity, the write-back of
  the live rows and every lane's memory request and probe buses, as
  columns of one array;
* **reference**: :class:`~repro.sim.evaluator.LevelizedEvaluator` on
  ``(K, n_nets)`` uint8 matrices, the oracle, which packs the settled
  rows once per step.

Either way every step appends its live rows to the batch's
:attr:`~BatchMachine.arena`, one :class:`~repro.sim.trace.Trace` in the
batch's ``bit_order``, in one copy, and returns their arena rows; no
record is built per lane.  The CPU's probes (halt, fork and dispatch
tests) read a whole batch at once: :meth:`BatchMachine.peek_bus` is the batch
form of :meth:`Machine.peek_bus` and returns a bus of every live lane as
``(values, xmasks)`` columns, from the last step's probe array on the
native engine and from the values matrix on the reference engine.

The rows stay the source of truth between steps: snapshots, memo keys
and the records all read them.  Live lanes are kept compacted in the
leading rows (retiring a lane moves the last live row into the hole), so
the work scales with the number of *live* paths.

This is the engine behind the batched execution-tree exploration in
:mod:`repro.core.activity`.  Lanes are snapshot-compatible with
:class:`Machine` in both directions, so the explorer can mix engines
freely and the differential tests can compare them record for record.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.logic import X
from repro.netlist.core import Netlist
from repro.netlist.program import net_order
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.machine import (
    MemoryPorts,
    _MemRequest,
    commit_memory_write,
    force_bus,
    sample_memory_control,
    serve_memory_read,
)
from repro.sim.trace import MAX_BLOCK_ROWS, Trace, group_rows, pack_rows


class Lane:
    """Handle to one live machine state inside a :class:`BatchMachine`.

    ``row`` is the lane's current row in the value matrix; it changes when
    other lanes retire, so always go through the handle.
    """

    __slots__ = (
        "row",
        "memory",
        "cycle",
        "dout_value",
        "dout_xmask",
        "_request",
        "forced_inputs",
        "next_dff_forces",
        "_port_masks",
        "tag",
    )

    def __init__(self, row: int, snapshot: dict[str, Any], forces: dict[int, int]):
        self.row = row
        self.memory = snapshot["memory"].fork()
        self.cycle = snapshot["cycle"]
        self.dout_value = snapshot["dout_value"]
        self.dout_xmask = snapshot["dout_xmask"]
        self._request = snapshot["request"]
        self.forced_inputs = dict(snapshot["forced_inputs"])
        self.next_dff_forces = dict(forces)
        #: native-kernel cache: (forced inputs, their input-bit masks)
        self._port_masks: tuple | None = None
        #: the caller's label for the rows this lane appends
        self.tag = -1


class BatchMachine:
    """Up to ``batch_size`` machine states clocked in lock-step."""

    def __init__(
        self,
        netlist: Netlist,
        ports: MemoryPorts,
        evaluator: LevelizedEvaluator,
        batch_size: int,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.netlist = netlist
        self.ports = ports
        self.evaluator = evaluator
        self.packed = bool(getattr(evaluator, "packed", False))
        self.batch_size = batch_size
        #: the native batch kernel that steps a packed batch in one
        #: foreign call (None: the reference engine's step below)
        self.kernel = None
        if self.packed:
            #: (B, 3, n_words) uint64 P/N/A planes, one row per lane slot
            self.planes = evaluator.fresh_planes(batch=batch_size)
            self.kernel = evaluator.batch_kernel(self.planes, ports)
            #: the bit order of the records' packed words
            self.bit_order = evaluator.program
        else:
            self.bit_order = net_order(netlist.n_nets)
            self.values = evaluator.fresh_values(batch=batch_size)
            self._prev_active = np.zeros(
                (batch_size, netlist.n_nets), dtype=bool
            )
        #: every lane-step's row, appended by :meth:`step`; its blocks
        #: start large (pages are touched only as rows land in them), so
        #: most explorations gather their tree from one block
        self.arena = Trace(netlist.n_nets, self.bit_order, MAX_BLOCK_ROWS)
        #: rows (bit r = row r) rewritten since the kernel last read them
        self._dirty = 0
        #: the last step's probe array, while its rows are the live lanes
        self._columns: np.ndarray | None = None
        self.lanes: list[Lane] = []
        self._dff_pos = {
            int(net): pos for pos, net in enumerate(evaluator.dff_out)
        }

    # ------------------------------------------------------------------
    # Lane management
    # ------------------------------------------------------------------
    @property
    def n_free(self) -> int:
        return self.batch_size - len(self.lanes)

    def load(self, snapshot: dict[str, Any], forces: dict[int, int]) -> Lane:
        """Restore a :meth:`Machine.snapshot` dict into a fresh lane.

        *forces* are one-shot DFF overrides consumed by the lane's next
        step — the explorer's concrete assumption for an unknown flag.
        """
        if not self.n_free:
            raise ValueError(f"all {self.batch_size} lanes are live")
        lane = Lane(len(self.lanes), snapshot, forces)
        self.lanes.append(lane)
        self._columns = None
        if self.packed:
            self.planes[lane.row] = snapshot["values"]
            self._dirty |= 1 << lane.row
        else:
            self.values[lane.row] = snapshot["values"]
            self._prev_active[lane.row] = snapshot["prev_active"]
        return lane

    def retire(self, lane: Lane) -> None:
        """Remove *lane*, compacting live rows to the top of the matrix."""
        last = self.lanes.pop()
        self._columns = None
        if last is not lane:
            if self.packed:
                self.planes[lane.row] = self.planes[last.row]
                self._dirty |= 1 << lane.row
            else:
                self.values[lane.row] = self.values[last.row]
                self._prev_active[lane.row] = self._prev_active[last.row]
            last.row = lane.row
            self.lanes[lane.row] = last
        lane.row = -1

    def peek_bus(self, nets: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Bus *nets* (at most 64 wide) of every live lane: ``(values,
        xmasks)`` uint64 columns parallel to :attr:`lanes`, the batch
        form of :meth:`Machine.peek_bus`.

        A packed batch answers from its last step's probe array.  A bus
        it did not probe, or a lane set changed since, is read from the
        rows, and the bus is probed from the next step on.  The
        reference engine reads its values matrix.
        """
        if len(nets) > 64:
            raise ValueError(f"a bus peek reads at most 64 nets, got {len(nets)}")
        n_live = len(self.lanes)
        if self.kernel is not None:
            column = 2 * self.kernel.bus_index(nets)
            columns = self._columns
            if columns is not None and column < columns.shape[1]:
                return columns[:, column], columns[:, column + 1]
            return self.bit_order.read_bus(self.planes[:n_live], nets)
        rows = self.values[:n_live, nets]
        known, unknown = rows == 1, rows == X
        weights = np.uint64(1) << np.arange(len(nets), dtype=np.uint64)
        return (
            (known * weights).sum(axis=1, dtype=np.uint64),
            (unknown * weights).sum(axis=1, dtype=np.uint64),
        )

    def snapshot(self, lane: Lane) -> dict[str, Any]:
        """A :class:`Machine`-compatible snapshot of one lane.

        ``values``/``prev_active`` live in matrix rows that the next step
        mutates in place, so they are copied; ``memory`` is a
        copy-on-write :meth:`~repro.sim.memory.TernaryMemory.fork`; the
        memory request is never mutated, so it is shared.
        """
        if self.packed:
            state = self.planes[lane.row].copy()
            prev_active = None
        else:
            state = self.values[lane.row].copy()
            prev_active = self._prev_active[lane.row].copy()
        return {
            "values": state,
            "memory": lane.memory.fork(),
            "cycle": lane.cycle,
            "dout_value": lane.dout_value,
            "dout_xmask": lane.dout_xmask,
            "request": lane._request,
            "prev_active": prev_active,
            "forced_inputs": dict(lane.forced_inputs),
            "next_dff_forces": dict(lane.next_dff_forces),
        }

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def step(self) -> range:
        """Advance every live lane one clock cycle.

        Appends one row per lane to :attr:`arena`, in :attr:`lanes`
        order, and returns their arena rows; the rows match what a
        scalar :class:`Machine` stepping the same lane state would
        record, field for field.

        With a single live lane the evaluator is driven with 1-D row
        *views* instead of a ``(1, n_nets)`` matrix: the dimension-agnostic
        evaluator produces identical values either way, but 1-D fancy
        indexing skips the 2-D dispatch overhead, so a single-path stretch
        costs the same as the scalar engine.
        """
        if self.kernel is not None:
            return self._step_native()
        n_live = len(self.lanes)
        evaluator = self.evaluator
        squeeze = n_live == 1
        values = self.values[0] if squeeze else self.values[:n_live]
        prev_active = (
            self._prev_active[0] if squeeze else self._prev_active[:n_live]
        )
        prev_values = values.copy()
        next_dff = evaluator.next_dff_values(values, reset=False)
        mem_counts: list[tuple[float, float]] = []
        for lane in self.lanes:
            if lane.next_dff_forces:
                for net, value in lane.next_dff_forces.items():
                    if squeeze:
                        next_dff[self._dff_pos[net]] = value
                    else:
                        next_dff[lane.row, self._dff_pos[net]] = value
                lane.next_dff_forces = {}
            mem_counts.append(serve_memory_read(lane))
        values[..., evaluator.dff_out] = next_dff
        for lane in self.lanes:
            row = values if squeeze else values[lane.row]
            force_bus(row, self.ports.dout, lane.dout_value, lane.dout_xmask)
            for net, value in lane.forced_inputs.items():
                row[net] = value
        evaluator.eval_comb(values)
        active = evaluator.compute_activity(prev_values, values, prev_active)
        if squeeze:
            self._prev_active[0] = active
        else:
            self._prev_active[:n_live] = active
        meta = []
        for lane, counts in zip(self.lanes, mem_counts):
            row_values = values if squeeze else values[lane.row]
            sample_memory_control(lane, row_values, self.ports)
            meta.append((lane.cycle, *counts))
            lane.cycle += 1
        return self._record(pack_rows(
            self.bit_order, values.reshape(n_live, -1),
            active.reshape(n_live, -1),
        ), meta)

    def _record(self, planes: np.ndarray, meta: list) -> range:
        """Append the live rows to the arena; their arena rows."""
        first = len(self.arena)
        self.arena.append_rows(planes, meta, self.bit_order)
        return range(first, len(self.arena))

    def _step_native(self) -> range:
        """Advance every live lane one cycle in one native kernel call.

        The kernel loads the DFFs (one-shot forces included), forces
        ``dout`` and the forced inputs, settles and marks activity for
        all lanes at once on its lane-sliced state, writes the live rows
        back and returns every lane's memory request and probe buses as
        the columns the batch's :meth:`peek_bus` answers from.  Python
        serves and commits memory and appends the live rows to the
        arena in one copy; they match the reference engine's step field
        for field.  A lane forcing a net that is not an INPUT raises
        ``ValueError`` before any lane is touched.
        """
        kernel = self.kernel
        lanes = self.lanes
        if not lanes:
            return range(len(self.arena), len(self.arena))
        for lane in lanes:
            cached = lane._port_masks
            if cached is None or cached[0] != lane.forced_inputs:
                lane._port_masks = (
                    dict(lane.forced_inputs),
                    kernel.force_masks(lane.forced_inputs),
                )
        ports, forces, mem_counts = [], [], []
        for lane in lanes:
            mem_counts.append(serve_memory_read(lane))
            ports.append(
                (lane.dout_value, lane.dout_xmask, *lane._port_masks[1])
            )
            if lane.next_dff_forces:
                forces += [
                    (lane.row, self._dff_pos[net], value)
                    for net, value in lane.next_dff_forces.items()
                ]
                lane.next_dff_forces = {}
        if self._dirty:
            kernel.mark(self._dirty)
            self._dirty = 0
        probes = self._columns = kernel.step(ports, forces)
        meta = []
        for lane, bits, counts in zip(lanes, probes[:, :8].tolist(), mem_counts):
            addr, addr_x, din, din_x, en, en_x, we, we_x = bits
            request = lane._request = _MemRequest(
                None if addr_x else addr, not addr_x, X if en_x else en,
                X if we_x else we, din, din_x,
            )
            if request.we != 0:
                commit_memory_write(lane, request)
            meta.append((lane.cycle, *counts))
            lane.cycle += 1
        return self._record(self.planes[: len(lanes)], meta)


# ----------------------------------------------------------------------
# Batched concrete execution: N independent programs to halt in lock-step.
# ----------------------------------------------------------------------
def run_batch_to_halt(
    cpu,
    machines: list,
    max_cycles: int = 100_000,
) -> list[tuple[Trace, int]]:
    """Run concrete *machines* to the halt idiom, all in lock-step.

    The workhorse behind the batched input-profiling and GA-stressmark
    baselines: each machine (already reset, e.g. fresh from
    ``cpu.make_machine``) becomes a lane of one batch, and lanes retire
    as they halt.  The native kernel steps the lanes in groups of 64.

    Returns one ``(trace, cycles)`` pair per machine, in input order, with
    exactly the rows and cycle count that ``cpu.run_to_halt(machine,
    max_cycles, trace)`` produces for the same machine — the lock-step
    engine is record-for-record identical to the scalar one.  Each trace
    is an index view of the batch's arena, so the lanes' rows are held
    once.

    Raises :class:`repro.cpu.UnresolvedPCError` when any machine's PC goes
    X (missing ``Program.with_inputs``) and
    :class:`repro.cpu.HaltBudgetError` when a machine fails to halt
    within *max_cycles* of its own cycles.
    """
    # sim must not import cpu at top level
    from repro.cpu import HaltBudgetError, UnresolvedPCError

    if not machines:
        return []
    template = machines[0]
    batch = BatchMachine(
        template.netlist,
        template.ports,
        template.evaluator,
        len(machines),
    )
    cycles: list[int] = [0] * len(machines)
    for index, machine in enumerate(machines):
        batch.load(machine.snapshot(), {}).tag = index
    tags: list[np.ndarray] = []  # per step, the machine of each row
    lane_tags = np.arange(len(machines))
    steps = 0  # every live lane has run exactly this many cycles
    while batch.lanes:
        batch.step()
        tags.append(lane_tags)
        steps += 1
        lanes = list(batch.lanes)
        running = ~cpu.halted(batch)
        stuck = cpu.pc_next_unknown(batch) & running
        # the first running lane decides, as a lane-by-lane check would
        if steps >= max_cycles and running.any() and not stuck[running.argmax()]:
            raise HaltBudgetError(f"no halt within {max_cycles} cycles")
        if stuck.any():
            raise UnresolvedPCError(
                "concrete run reached an unknown PC; did you forget "
                "Program.with_inputs()?"
            )
        halted = np.flatnonzero(~running).tolist()
        for row in halted:
            lane = lanes[row]
            cycles[lane.tag] = lane.cycle
            batch.retire(lane)
        if halted:
            lane_tags = np.array([lane.tag for lane in batch.lanes])
    rows = group_rows(np.concatenate(tags), len(machines))
    return [(batch.arena.view(lane_rows), n) for lane_rows, n in zip(rows, cycles)]

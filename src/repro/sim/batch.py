"""Lock-step batched simulation of independent machine states.

A :class:`BatchMachine` holds up to B *lanes*, each a complete machine
state (net values, behavioral memory, memory-port registers) loaded from a
:meth:`repro.sim.machine.Machine.snapshot` dict.  One :meth:`step` clocks
every live lane simultaneously; the per-lane parts that stay Python are
the behavioral memory (serve and commit), annotations and the records.

Lane state lives in one row per lane: ``(B, 3, n_words)`` packed P/N/A
planes on the native engine (``values`` uint8 rows on the reference
engine).  How a step settles them depends on the engine:

* **native**: one foreign call per step
  (:class:`~repro.sim.native.BatchKernel`) on a lane-sliced copy of the
  batch — DFF loads, port forcing, settle, activity, the write-back of
  the live rows and every lane's memory request and probe buses.  Its
  records carry the packed words, unpacked lazily at the trace boundary;
* **reference**: :class:`~repro.sim.evaluator.LevelizedEvaluator` on
  ``(K, n_nets)`` uint8 matrices, the oracle.

The rows stay the source of truth between steps: snapshots, memo keys,
:class:`LaneView` and the records all read them.  Live lanes are kept
compacted in the leading rows (retiring a lane moves the last live row
into the hole), so the work scales with the number of *live* paths.

This is the engine behind the batched execution-tree exploration in
:mod:`repro.core.activity`.  Lanes are snapshot-compatible with
:class:`Machine` in both directions, so the explorer can mix engines
freely and the differential tests can compare them record for record.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.logic import X
from repro.netlist.core import Netlist
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.machine import (
    MemoryPorts,
    _MemRequest,
    commit_memory_write,
    compile_bus_spec,
    force_bus,
    read_bus,
    read_bus_planes,
    sample_memory_control,
    serve_memory_read,
)
from repro.sim.trace import CycleRecord, Trace


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
        "_probes",
    )

    def __init__(self, row: int, snapshot: dict[str, Any], forces: dict[int, int]):
        self.row = row
        self.memory = snapshot["memory"].fork()
        self.cycle = snapshot["cycle"]
        self.dout_value = snapshot["dout_value"]
        self.dout_xmask = snapshot["dout_xmask"]
        self._request = _MemRequest(**vars(snapshot["request"]))
        self.forced_inputs = dict(snapshot["forced_inputs"])
        self.next_dff_forces = dict(forces)
        #: native-kernel cache: (forced inputs, their input-bit masks)
        self._port_masks: tuple | None = None
        #: the batch kernel's bus results of this lane's last step
        self._probes: list[int] | None = None


class LaneView:
    """Read-only :class:`Machine`-shaped window onto one lane.

    Exposes exactly the surface the CPU wrapper's introspection hooks use
    (``peek_bus``), so ``cpu.halted``, ``cpu.pc_next_unknown``,
    ``cpu.branch_fork_assignments`` and ``cpu.annotate`` work unchanged on a
    batched lane.
    """

    __slots__ = ("_batch", "_lane")

    def __init__(self, batch: "BatchMachine", lane: Lane):
        self._batch = batch
        self._lane = lane

    def peek_bus(self, nets: list[int]) -> tuple[int, int]:
        batch = self._batch
        if batch.packed:
            # answered from the step's probe results; a bus seen for the
            # first time is read from the row and probed from the next
            # step on
            index = 2 * batch.kernel.bus_index(nets)
            probes = self._lane._probes
            if probes is not None and 0 <= index < len(probes):
                return probes[index], probes[index + 1]
            return read_bus_planes(
                batch.planes[self._lane.row], batch._peek_spec(nets)
            )
        return read_bus(batch.values[self._lane.row], nets)


class BatchMachine:
    """Up to ``batch_size`` machine states clocked in lock-step."""

    def __init__(
        self,
        netlist: Netlist,
        ports: MemoryPorts,
        evaluator: LevelizedEvaluator,
        batch_size: int,
        annotator: Callable | None = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.netlist = netlist
        self.ports = ports
        self.evaluator = evaluator
        self.packed = bool(getattr(evaluator, "packed", False))
        self.batch_size = batch_size
        self.annotator = annotator
        #: the native batch kernel that steps a packed batch in one
        #: foreign call (None: the reference engine's step below)
        self.kernel = None
        if self.packed:
            #: (B, 3, n_words) uint64 P/N/A planes, one row per lane slot
            self.planes = evaluator.fresh_planes(batch=batch_size)
            self._peek_specs: dict[tuple[int, ...], list[tuple]] = {}
            self.kernel = evaluator.batch_kernel(self.planes, ports)
            self._valid_mask = evaluator.program.valid_mask
        else:
            self.values = evaluator.fresh_values(batch=batch_size)
            self._prev_active = np.zeros(
                (batch_size, netlist.n_nets), dtype=bool
            )
        #: rows (bit r = row r) rewritten since the kernel last read them
        self._dirty = 0
        self.lanes: list[Lane] = []
        self._dff_pos = {
            int(net): pos for pos, net in enumerate(evaluator.dff_out)
        }

    def _peek_spec(self, nets: list[int]) -> list[tuple]:
        """Compiled packed bus spec for *nets*, cached per net tuple."""
        key = tuple(nets)
        spec = self._peek_specs.get(key)
        if spec is None:
            spec = self._peek_specs[key] = compile_bus_spec(
                self.evaluator.program, nets
            )
        return spec

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

    def lane_view(self, lane: Lane) -> LaneView:
        return LaneView(self, lane)

    def snapshot(self, lane: Lane) -> dict[str, Any]:
        """A :class:`Machine`-compatible snapshot of one lane.

        ``values``/``prev_active`` live in matrix rows that the next step
        mutates in place, so they are copied; ``memory`` is a
        copy-on-write :meth:`~repro.sim.memory.TernaryMemory.fork`.
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
            "request": _MemRequest(**vars(lane._request)),
            "prev_active": prev_active,
            "forced_inputs": dict(lane.forced_inputs),
            "next_dff_forces": dict(lane.next_dff_forces),
        }

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def step(self) -> list[CycleRecord]:
        """Advance every live lane one clock cycle.

        Returns one record per lane, parallel to :attr:`lanes`; records
        match what a scalar :class:`Machine` stepping the same lane state
        would produce, field for field.

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
        records: list[CycleRecord] = []
        for lane, (mem_reads, mem_writes) in zip(self.lanes, mem_counts):
            row_values = values if squeeze else values[lane.row]
            row_active = active if squeeze else active[lane.row]
            sample_memory_control(lane, row_values, self.ports)
            records.append(
                CycleRecord(
                    cycle=lane.cycle,
                    values=row_values.copy(),
                    active=row_active.copy(),
                    mem_reads=mem_reads,
                    mem_writes=mem_writes,
                    annotations=(
                        self.annotator(self.lane_view(lane))
                        if self.annotator
                        else {}
                    ),
                )
            )
            lane.cycle += 1
        return records

    def _step_native(self) -> list[CycleRecord]:
        """Advance every live lane one cycle in one native kernel call.

        The kernel loads the DFFs (one-shot forces included), forces
        ``dout`` and the forced inputs, settles and marks activity for
        all lanes at once on its lane-sliced state, writes the live rows
        back and returns every lane's memory request and probe buses.
        Python serves and commits memory and builds the records, which
        match the reference engine's step field for field.  A lane
        forcing a net that is not an INPUT raises ``ValueError`` before
        any lane is touched.
        """
        kernel = self.kernel
        lanes = self.lanes
        if not lanes:
            return []
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
        probes = kernel.step(ports, forces)
        n_live = len(lanes)
        value_words = self.planes[:n_live, 0:2].copy()
        active_words = self.planes[:n_live, 2] & self._valid_mask
        program = self.evaluator.program
        annotator = self.annotator
        records: list[CycleRecord] = []
        for i, lane in enumerate(lanes):
            probe = lane._probes = probes[i]
            addr, addr_x, din, din_x, en, en_x, we, we_x = probe[:8]
            request = lane._request = _MemRequest(
                None if addr_x else addr, not addr_x, X if en_x else en,
                X if we_x else we, din, din_x,
            )
            if request.we != 0:
                commit_memory_write(lane, request)
            mem_reads, mem_writes = mem_counts[i]
            records.append(
                CycleRecord(
                    lane.cycle, None, None, mem_reads, mem_writes,
                    annotator(LaneView(self, lane)) if annotator else {},
                    active_words[i], value_words[i], program,
                )
            )
            lane.cycle += 1
        return records


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
    exactly the records and cycle count that ``cpu.run_to_halt(machine,
    max_cycles, trace)`` produces for the same machine — the lock-step
    engine is record-for-record identical to the scalar one.

    Raises :class:`repro.cpu.UnresolvedPCError` when any machine's PC goes
    X (missing ``Program.with_inputs``) and :class:`RuntimeError` when a
    machine fails to halt within *max_cycles* of its own cycles.
    """
    from repro.cpu import UnresolvedPCError  # sim must not import cpu at top level

    if not machines:
        return []
    template = machines[0]
    batch = BatchMachine(
        template.netlist,
        template.ports,
        template.evaluator,
        len(machines),
        annotator=template.annotator,
    )
    traces = [Trace(template.netlist.n_nets) for _ in machines]
    if batch.packed:
        for trace in traces:
            trace.packing = template.evaluator.program
    cycles: list[int] = [0] * len(machines)
    lane_index = {
        id(batch.load(machine.snapshot(), {})): index
        for index, machine in enumerate(machines)
    }
    steps = 0  # every live lane has run exactly this many cycles
    while batch.lanes:
        records = batch.step()
        steps += 1
        for lane, record in zip(list(batch.lanes), records):
            index = lane_index[id(lane)]
            traces[index].append(record)
            view = batch.lane_view(lane)
            if cpu.halted(view):
                cycles[index] = lane.cycle
            elif cpu.pc_next_unknown(view):
                raise UnresolvedPCError(
                    "concrete run reached an unknown PC; did you forget "
                    "Program.with_inputs()?"
                )
            elif steps >= max_cycles:
                raise RuntimeError(f"no halt within {max_cycles} cycles")
            else:
                continue
            batch.retire(lane)
    return [(trace, n) for trace, n in zip(traces, cycles)]

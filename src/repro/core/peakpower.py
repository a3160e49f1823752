"""Input-independent peak power computation (Algorithm 2).

The symbolic trace contains Xs.  Power in cycle *c* is maximized by
assigning values to the Xs of cycles *c-1* and *c* so that every active
gate makes its most expensive transition into *c*.  Because the assignment
for cycle *c* constrains cycle *c-1*, two assignments are produced — one
maximizing all even cycles, one all odd — exactly as in the paper, and the
final peak power trace takes each cycle's power from the profile that
maximized it.

Execution-tree structure matters here: a segment's first cycle transitions
from its *parent's* last cycle, not from whatever segment happens to
precede it in the flattened trace, so maximization and power evaluation
need an explicit predecessor row per segment.

The algorithm runs on the dual-rail uint64 P/N planes the explorer
records (:meth:`Trace.values_matrix` with ``packed=True``; unpacked
traces are packed once in plain net order).  Every segment is laid out
as a context row holding its predecessor followed by its cycles; the
stack is an index over the flat packed trace (each cycle's predecessor
row), never a copy.  One parity's targets are independent, so all of
them — across all segments — are X-assigned with word-wise bit ops
(:func:`assign_planes`, 64 nets per op) and priced per
:attr:`~repro.power.model.PowerModel.TRACE_CHUNK_ROWS` block: only the
rising and falling edge words are unpacked, one at a time, into the
shared einsum kernel.  The witness profiles are assigned on the same
planes and unpacked once per parity.

:func:`maximize_parity` keeps the trit-level rules as the reference the
plane ops are tested against: applied to each (predecessor, cycle) pair
and priced with :meth:`PowerModel.transition_power`, it reproduces the
peak trace and every per-module series bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.activity import ExecutionTree
from repro.logic import X
from repro.service import faults
from repro.power.model import PowerModel, PowerTrace
from repro.sim.vcd import write_vcd


@dataclass
class PeakPowerResult:
    """The per-cycle peak power trace and its supporting profiles.

    The even/odd maximized witness profiles — the two full
    ``(n_cycles, n_nets)`` value assignments the paper hands to the power
    tool as VCDs — are **lazy**: peak power itself only needs the priced
    transitions, so the profiles are materialized (and cached) the first
    time ``even_values``/``odd_values`` is read, typically for a VCD dump
    or a soundness check.  Plain analysis runs never allocate them.
    """

    peak_power_mw: float
    peak_cycle: int  # index into the flattened trace
    trace_mw: np.ndarray
    module_mw: dict[str, np.ndarray]
    clock_ns: float
    #: per-segment peak-trace energies (pJ), parallel to ``tree.segments``;
    #: peak-energy analysis consumes these instead of re-slicing the trace.
    segment_energy_pj: np.ndarray | None = None
    #: rebuilds ``(even_values, odd_values)`` on demand
    witness_builder: Callable[[], tuple[np.ndarray, np.ndarray]] | None = (
        field(default=None, repr=False, compare=False)
    )
    _witness_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False, init=False
    )

    def witnesses(self) -> tuple[np.ndarray, np.ndarray]:
        """(even, odd) maximized value profiles, built once on demand."""
        if self._witness_cache is None:
            if self.witness_builder is None:
                raise ValueError(
                    "this PeakPowerResult carries no witness builder"
                )
            self._witness_cache = self.witness_builder()
        return self._witness_cache

    @property
    def even_values(self) -> np.ndarray:
        return self.witnesses()[0]

    @property
    def odd_values(self) -> np.ndarray:
        return self.witnesses()[1]

    def power_trace(self) -> PowerTrace:
        return PowerTrace(
            total_mw=self.trace_mw,
            module_mw=self.module_mw,
            clock_ns=self.clock_ns,
        )


def maximize_parity(
    values: np.ndarray,
    active: np.ndarray,
    parity: int,
    max_prev: np.ndarray,
    max_cur: np.ndarray,
) -> np.ndarray:
    """Assign Xs to maximize switching power in cycles of one parity.

    Implements lines 4-17 of Algorithm 2 for one segment: for every active
    gate in a target cycle, an X pair becomes the cell's max-power
    transition, a single X becomes the value that completes a toggle.  Row
    0 is the predecessor context and is never a target.

    This is the trit-level reference; target cycles are independent of
    each other (targets of one parity are two rows apart, and each
    touches only itself and its predecessor row), which is what lets
    :func:`compute_peak_power` process every target of every segment in
    one shot — see :func:`assign_planes`.
    """
    assigned = values.copy()
    n_cycles = values.shape[0]
    start = parity if parity >= 1 else 2
    prev_template = np.broadcast_to(max_prev, values.shape[1:])
    cur_template = np.broadcast_to(max_cur, values.shape[1:])
    for cycle in range(start, n_cycles, 2):
        act = active[cycle]
        cur_x = assigned[cycle] == X
        prev_x = assigned[cycle - 1] == X
        both = act & cur_x & prev_x
        assigned[cycle - 1][both] = prev_template[both]
        assigned[cycle][both] = cur_template[both]
        only_cur = act & cur_x & ~prev_x
        assigned[cycle][only_cur] = 1 - assigned[cycle - 1][only_cur]
        only_prev = act & prev_x & ~cur_x
        assigned[cycle - 1][only_prev] = 1 - assigned[cycle][only_prev]
    return assigned


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


def compute_peak_power(
    tree: ExecutionTree,
    model: PowerModel,
    per_module: bool = True,
    vcd_dir: str | Path | None = None,
    cancel=None,
) -> PeakPowerResult:
    """Run Algorithm 2 over an activity-annotated execution tree.

    *cancel* is an optional :class:`repro.parallel.cancel.CancelToken`
    checked before each parity pass; a set token aborts with
    :class:`repro.parallel.cancel.JobCancelled`.  When *vcd_dir* is
    given, the even- and odd-maximized activity profiles are written as
    ``even.vcd`` / ``odd.vcd``, mirroring the paper's flow of handing
    two VCD files to the power tool.
    """
    flat = tree.flat_trace
    n_cycles = len(flat)
    module_names = sorted(model.module_masks) if per_module else []
    if n_cycles == 0:
        empty = np.zeros((0, 0), np.uint8)
        return _finish(
            tree, model, np.zeros(0),
            {name: np.zeros(0) for name in module_names},
            lambda: (empty.copy(), empty.copy()), vcd_dir,
        )
    order, values, active, pred, local = _plane_stack(tree)
    max_prev, max_cur = _max_planes(model, order)
    mem_accesses = flat.mem_accesses()

    # One maximization + one power evaluation per parity, walked in
    # cache-sized blocks.  Parity 1 targets local rows 1,3,5..., parity 0
    # rows 2,4,...  The peak trace takes cycle c from the profile that
    # targeted c's parity, so each profile is priced only at its own
    # target rows and scattered back by parity.
    # :meth:`PowerModel.pair_power` pulls one TRACE_CHUNK_ROWS block of
    # target pairs at a time, gathered and X-assigned on the planes;
    # every target touches only itself and its own predecessor and the
    # assignment writes only into the gathered copies, so blocks are
    # independent and the floats are bit-identical at any block size.
    # The full witness profiles are *not* assembled here; the witness
    # builder recomputes them if anyone asks.
    odd_local = local % 2 == 1
    peak_trace = np.empty(n_cycles)
    module_mw = {name: np.empty(n_cycles) for name in module_names}
    for parity_mask in (odd_local, ~odd_local):
        if cancel is not None:
            cancel.check()
        faults.hit("peakpower.segment")
        targets = np.flatnonzero(parity_mask)

        def pairs(start: int, stop: int):
            rows = targets[start:stop]
            return assign_planes(
                values.take(pred[rows], axis=1), values.take(rows, axis=1),
                active[rows], max_prev, max_cur,
            )

        power = model.pair_power(
            pairs,
            len(targets),
            mem_accesses[targets],
            per_module=per_module,
            bit_order=order,
        )
        peak_trace[parity_mask] = power.total_mw
        for name in module_names:
            module_mw[name][parity_mask] = power.module_mw[name]

    return _finish(
        tree, model, peak_trace, module_mw,
        lambda: _witnesses(tree, model), vcd_dir,
    )


def _finish(
    tree: ExecutionTree,
    model: PowerModel,
    peak_trace: np.ndarray,
    module_mw: dict[str, np.ndarray],
    witness_builder,
    vcd_dir: str | Path | None,
) -> PeakPowerResult:
    """Segment sums, VCDs and the result object."""
    segment_energy = np.zeros(len(tree.segments))
    for segment in tree.segments:
        if segment.n_cycles:
            sl = tree.segment_slice(segment)
            segment_energy[segment.index] = (
                peak_trace[sl].sum() * model.clock_ns
            )

    n_cycles = peak_trace.shape[0]
    peak_cycle = int(peak_trace.argmax()) if n_cycles else 0
    result = PeakPowerResult(
        peak_power_mw=float(peak_trace.max()) if n_cycles else 0.0,
        peak_cycle=peak_cycle,
        trace_mw=peak_trace,
        module_mw=module_mw,
        clock_ns=model.clock_ns,
        segment_energy_pj=segment_energy,
        witness_builder=witness_builder,
    )
    if vcd_dir is not None:  # the VCD dump is a witness request
        directory = Path(vcd_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_vcd(
            result.even_values, directory / "even.vcd",
            timescale_ns=model.clock_ns,
        )
        write_vcd(
            result.odd_values, directory / "odd.vcd",
            timescale_ns=model.clock_ns,
        )
    return result


def _plane_stack(tree: ExecutionTree):
    """The context-interleaved segment stack over the packed flat trace.

    Returns ``(order, values, active, pred, local)``: the trace's
    :attr:`~repro.netlist.program.BitOrder.live_bytes` order, its
    rail-major ``(2, n_cycles, n_words)`` P/N planes and ``(n_cycles,
    n_words)`` activity words in that order, the flat row holding each
    cycle's predecessor (the context row: the parent's last cycle for a
    segment's first cycle, the cycle itself for the root's), and each
    cycle's 1-based row within its segment.
    """
    flat = tree.flat_trace
    n_cycles = len(flat)
    pred = np.arange(-1, n_cycles - 1)
    local = np.empty(n_cycles, dtype=np.int64)
    for segment in tree.segments:
        if not segment.n_cycles:
            continue
        start = segment.flat_start
        if segment.parent is None:
            pred[start] = start  # root: no predecessor transition
        else:
            parent = tree.segments[segment.parent[0]]
            pred[start] = parent.flat_start + parent.n_cycles - 1
        local[start : start + segment.n_cycles] = np.arange(
            1, segment.n_cycles + 1
        )
    order = flat.bit_order.live_bytes
    planes = order.compact(flat.values_matrix(packed=True))
    values = np.ascontiguousarray(planes.transpose(1, 0, 2))
    active = order.compact(flat.active_matrix(packed=True))
    return order, values, active, pred, local


def _max_planes(model: PowerModel, order) -> tuple[np.ndarray, np.ndarray]:
    """P words of the max-power transition's start and end values."""
    return (
        order.pack_values(model.max_prev)[0],
        order.pack_values(model.max_cur)[0],
    )


def _witnesses(
    tree: ExecutionTree, model: PowerModel
) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) witness profiles: each parity X-assigned in full on
    the planes, then unpacked once."""
    order, values, active, pred, local = _plane_stack(tree)
    max_prev, max_cur = _max_planes(model, order)
    profiles: list[np.ndarray] = []
    for parity_mask in (local % 2 == 1, local % 2 == 0):
        targets = np.flatnonzero(parity_mask)
        new_prev, new_cur = assign_planes(
            values.take(pred[targets], axis=1), values.take(targets, axis=1),
            active[targets], max_prev, max_cur,
        )
        assigned = values.copy()
        assigned[:, targets] = new_cur
        # a segment's first target takes its predecessor from the context
        # row, which belongs to no profile row
        inner = local[targets] > 1
        assigned[:, targets[inner] - 1] = new_prev[:, inner]
        profiles.append(order.unpack_trits(assigned[0], assigned[1]))
    odd_full, even_full = profiles
    return even_full, odd_full

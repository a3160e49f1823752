"""Input-independent gate activity analysis (Algorithm 1).

Symbolic simulation of the application binary on the processor netlist:
all inputs are X, the machine steps until the *next* program counter value
would contain an X — an input-dependent conditional branch.  The run then
forks: for every concretization of the unknown status flags the branch
reads, a pending path is pushed, keyed by the (state, assignment) pair so
already-simulated paths are never re-simulated (this is what lets
input-dependent loops terminate).

Two engines implement the exploration:

* the **scalar** engine simulates one pending path at a time on a
  :class:`~repro.sim.machine.Machine` (the original reference), and
* the **batched** engine (the default) drains the pending-path queue up to
  ``batch_size`` paths at a time on a
  :class:`~repro.sim.batch.BatchMachine`, settling all of them per cycle
  with one set of matrix operations.  Retired lanes are refilled from the
  queue mid-flight so the batch stays full.

Both produce the *same* :class:`ExecutionTree`, bit for bit: a pending
path's entire future is determined by its memoization key, so the batched
engine simulates the same set of path segments (in whatever order the
batch schedule visits them) and then replays the scalar engine's exact
stack discipline over the discovered segment graph to assign segment
indices, parents, fork targets and the flat-trace layout.

The output is an :class:`ExecutionTree`: a set of trace *segments* linked
by fork edges (including memoized back/cross edges), plus the flattened
concatenated trace that Algorithm 2 consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.asm.program import Program
from repro.service import faults
from repro.sim.batch import BatchMachine
from repro.sim.trace import CycleRecord, Trace

#: batch width used when ``explore(..., batch_size=None)``; override with
#: the ``REPRO_BATCH_SIZE`` environment variable (1 = scalar engine).
DEFAULT_BATCH_SIZE = 8

#: wider default for the bitplane/native engines: their per-cycle cost is
#: dominated by fixed dispatch overhead (numpy op issue for bitplane, the
#: per-settle foreign call + trace bookkeeping for native) that amortizes
#: across live lanes, so deep pending-path queues benefit from more lanes
#: at negligible memory cost (a lane is ~18 KB of packed planes).
BITPLANE_DEFAULT_BATCH_SIZE = 32


def default_batch_size(engine: str | None = None) -> int:
    """Batch width for *engine* (resolved) honoring ``REPRO_BATCH_SIZE``."""
    raw = os.environ.get("REPRO_BATCH_SIZE")
    if not raw:
        if engine in ("bitplane", "native"):
            return BITPLANE_DEFAULT_BATCH_SIZE
        return DEFAULT_BATCH_SIZE
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_BATCH_SIZE must be an integer, got {raw!r}"
        ) from None


class PathExplosionError(Exception):
    """The execution tree exceeded the configured exploration budget."""


@dataclass
class Fork:
    """One outgoing edge of a segment's terminal branch."""

    #: status-register concretization taken on this edge
    assignment: dict[int, int]
    #: target segment index (resolved after exploration)
    target: int


@dataclass
class Segment:
    """A branch-free stretch of symbolically simulated cycles."""

    index: int
    #: (parent segment index, fork number) — None for the root
    parent: tuple[int, int] | None
    #: slice [start, start + n_cycles) of this segment in the flat trace
    flat_start: int = 0
    n_cycles: int = 0
    #: "halt" or "fork"
    end: str = ""
    forks: list[Fork] = field(default_factory=list)


@dataclass
class ExecutionTree:
    """Algorithm 1's annotated symbolic execution tree."""

    segments: list[Segment]
    flat_trace: Trace
    n_memo_hits: int = 0

    @property
    def n_cycles(self) -> int:
        return len(self.flat_trace)

    def segment_slice(self, segment: Segment) -> slice:
        return slice(segment.flat_start, segment.flat_start + segment.n_cycles)

    def toggled_any(self) -> np.ndarray:
        """Gates that can toggle in *some* execution — Figure 3.4's set."""
        return self.flat_trace.toggled_any()

    def edges(self) -> list[tuple[int, int]]:
        """(from_segment, to_segment) fork edges, memo edges included."""
        pairs = []
        for segment in self.segments:
            pairs.extend((segment.index, fork.target) for fork in segment.forks)
        return pairs

    def is_cyclic(self) -> bool:
        """True when memoization produced a loop (input-dependent loop)."""
        color = {}

        def visit(node: int) -> bool:
            color[node] = 1
            for _src, dst in [
                (node, f.target) for f in self.segments[node].forks
            ]:
                if color.get(dst) == 1:
                    return True
                if color.get(dst, 0) == 0 and visit(dst):
                    return True
            color[node] = 2
            return False

        return visit(0)


@dataclass
class _Pending:
    snapshot: dict
    forces: dict[int, int]
    parent: tuple[int, int] | None
    memo_key: bytes


def _memo_key(evaluator, snapshot: dict, forces: dict[int, int]) -> bytes:
    """Key = architectural state at the branch + the flag concretization.

    *evaluator* (either engine) tells the fingerprint how to read the
    snapshot's state array; the induced equivalence relation — and hence
    the execution tree — is representation-independent.
    """
    import hashlib

    from repro.sim.machine import Machine

    h = hashlib.blake2b(digest_size=16)
    h.update(Machine.snapshot_state_key(snapshot, evaluator))
    for net in sorted(forces):
        h.update(net.to_bytes(4, "little"))
        h.update(forces[net].to_bytes(1, "little"))
    return h.digest()


_ROOT_KEY = b"root"


def explore(
    cpu,
    program: Program,
    max_cycles: int = 200_000,
    max_segments: int = 4_096,
    max_cycles_per_path: int = 50_000,
    batch_size: int | None = None,
    engine: str | None = None,
    cancel=None,
) -> ExecutionTree:
    """Run Algorithm 1 for *program* on the gate-level *cpu*.

    *batch_size* selects the scheduling: ``1`` runs one pending path at a
    time, anything larger settles that many paths in lock-step, and
    ``None`` (the default) uses :func:`default_batch_size`.  *engine*
    selects the simulation representation: ``"native"`` (the compiled C
    settle kernel, the default), ``"bitplane"`` (packed dual rail in
    numpy, native's no-compiler fallback) or ``"reference"`` (the uint8
    oracle); ``None`` honors ``REPRO_ENGINE``.  The exploration runs in
    the calling process; cores are spent across analyses (``suite
    --jobs``, service job slots), not inside one.
    Every combination returns the identical tree, bit for bit.  *cancel*
    is an optional :class:`repro.parallel.cancel.CancelToken` checked
    between path-queue batches; a set token aborts the exploration with
    :class:`repro.parallel.cancel.JobCancelled` (results are never
    altered by cancellation, only abandoned).

    Returns the annotated execution tree.  Raises
    :class:`PathExplosionError` when the exploration budget is exceeded and
    :class:`repro.cpu.UnresolvedPCError` when the PC becomes X outside a
    forkable conditional branch.
    """
    if batch_size is None:
        from repro.sim.bitplane import default_engine

        batch_size = default_batch_size(engine or default_engine())
    if batch_size <= 1:
        return _explore_scalar(
            cpu, program, max_cycles, max_segments, max_cycles_per_path,
            engine, cancel=cancel,
        )
    return _explore_batched(
        cpu, program, max_cycles, max_segments, max_cycles_per_path,
        batch_size, engine, cancel=cancel,
    )


# ----------------------------------------------------------------------
# Scalar engine: one pending path at a time (the original reference).
# ----------------------------------------------------------------------
def _explore_scalar(
    cpu,
    program: Program,
    max_cycles: int,
    max_segments: int,
    max_cycles_per_path: int,
    engine: str | None = None,
    cancel=None,
) -> ExecutionTree:
    machine = cpu.make_machine(program, symbolic_inputs=True, engine=engine)
    flat = Trace(machine.netlist.n_nets)
    segments: list[Segment] = []
    total_cycles = 0

    root = _Pending(
        snapshot=machine.snapshot(), forces={}, parent=None, memo_key=_ROOT_KEY
    )
    stack: list[_Pending] = [root]
    #: memo_key -> segment index (future segments get patched when popped)
    seen: dict[bytes, int] = {root.memo_key: 0}
    pending_targets: dict[bytes, list[tuple[int, int]]] = {}
    n_memo_hits = 0

    while stack:
        if cancel is not None:
            cancel.check()
        faults.hit("explore.batch")
        pending = stack.pop()
        if len(segments) >= max_segments:
            raise PathExplosionError(
                f"{program.name}: more than {max_segments} path segments"
            )
        segment = Segment(index=len(segments), parent=pending.parent)
        segment.flat_start = len(flat)
        segments.append(segment)
        seen[pending.memo_key] = segment.index
        for src, fork_no in pending_targets.pop(pending.memo_key, []):
            segments[src].forks[fork_no].target = segment.index

        machine.restore(pending.snapshot)
        machine.next_dff_forces = dict(pending.forces)

        cycles_here = 0
        while True:
            snap_before = machine.snapshot()
            machine.step(trace=flat)
            cycles_here += 1
            total_cycles += 1
            if total_cycles > max_cycles:
                raise PathExplosionError(
                    f"{program.name}: exceeded {max_cycles} total cycles"
                )
            if cycles_here > max_cycles_per_path:
                raise PathExplosionError(
                    f"{program.name}: path exceeded {max_cycles_per_path} cycles"
                )
            if cpu.halted(machine):
                segment.end = "halt"
                break
            if cpu.pc_next_unknown(machine):
                assignments = cpu.branch_fork_assignments(machine)
                # Drop the X-condition dispatch cycle: each child re-executes
                # it with concrete flags, keeping flat cycles 1:1 with real
                # executions (and the peak bound tight).
                flat.records.pop()
                cycles_here -= 1
                total_cycles -= 1
                segment.end = "fork"
                for assignment in assignments:
                    key = _memo_key(
                        machine.evaluator, snap_before, assignment
                    )
                    fork_no = len(segment.forks)
                    if key in seen:
                        n_memo_hits += 1
                        segment.forks.append(Fork(assignment, seen[key]))
                        if seen[key] == -1:  # queued but not yet simulated
                            pending_targets.setdefault(key, []).append(
                                (segment.index, fork_no)
                            )
                    else:
                        seen[key] = -1
                        segment.forks.append(Fork(assignment, -1))
                        pending_targets.setdefault(key, []).append(
                            (segment.index, fork_no)
                        )
                        stack.append(
                            _Pending(
                                snapshot=snap_before,
                                forces=assignment,
                                parent=(segment.index, fork_no),
                                memo_key=key,
                            )
                        )
                break
        segment.n_cycles = cycles_here

    tree = ExecutionTree(
        segments=segments, flat_trace=flat, n_memo_hits=n_memo_hits
    )
    _check_resolved(tree)
    return tree


# ----------------------------------------------------------------------
# Batched engine: drain the pending-path queue B lanes at a time.
#
# NOTE: _explore_scalar is the oracle for this drain loop.  Any change to
# the fork semantics — the pre-step snapshot, the dispatch-record pop,
# the memo-key enumeration — must be applied to both; the differential
# tests pin batched ≡ scalar, tree for tree.
# ----------------------------------------------------------------------
@dataclass
class _Node:
    """One simulated path segment, keyed by its memoization key."""

    key: bytes
    records: list[CycleRecord] = field(default_factory=list)
    end: str = ""
    #: (flag assignment, child memo key) in branch-enumeration order
    forks: list[tuple[dict[int, int], bytes]] = field(default_factory=list)


def _explore_batched(
    cpu,
    program: Program,
    max_cycles: int,
    max_segments: int,
    max_cycles_per_path: int,
    batch_size: int,
    engine: str | None = None,
    cancel=None,
) -> ExecutionTree:
    machine = cpu.make_machine(program, symbolic_inputs=True, engine=engine)
    # record_packed defers unpacking to the trace boundary (lazy per
    # record, bulk for values_matrix/active_matrix): on the packed
    # engines the explore loop then never unpacks a row it only forks
    # from.  The replay in _assemble_tree is representation-agnostic.
    batch = BatchMachine(
        machine.netlist,
        machine.ports,
        machine.evaluator,
        batch_size,
        annotator=machine.annotator,
        record_packed=True,
    )
    evaluator = machine.evaluator

    root = _Pending(
        snapshot=machine.snapshot(), forces={}, parent=None, memo_key=_ROOT_KEY
    )
    stack: list[_Pending] = [root]
    seen: set[bytes] = {root.memo_key}
    nodes: dict[bytes, _Node] = {}
    total_cycles = 0

    lane_node: dict[int, _Node] = {}  # id(lane) -> segment being simulated
    lane_cycles: dict[int, int] = {}

    def start(pending: _Pending) -> None:
        if len(nodes) >= max_segments:
            raise PathExplosionError(
                f"{program.name}: more than {max_segments} path segments"
            )
        node = _Node(key=pending.memo_key)
        nodes[pending.memo_key] = node
        lane = batch.load(pending.snapshot, pending.forces)
        lane_node[id(lane)] = node
        lane_cycles[id(lane)] = 0

    def refill() -> None:
        while stack and batch.n_free:
            start(stack.pop())

    refill()
    while batch.lanes:
        if cancel is not None:
            cancel.check()
        faults.hit("explore.batch")
        # Pre-step snapshots: a fork restarts its children from the state
        # *before* the X-condition dispatch cycle (they re-execute it with
        # concrete flags), exactly like the scalar engine's snap_before.
        snap_before = {id(lane): batch.snapshot(lane) for lane in batch.lanes}
        records = batch.step()
        for lane, record in zip(list(batch.lanes), records):
            node = lane_node[id(lane)]
            node.records.append(record)
            lane_cycles[id(lane)] += 1
            total_cycles += 1
            if total_cycles > max_cycles:
                raise PathExplosionError(
                    f"{program.name}: exceeded {max_cycles} total cycles"
                )
            if lane_cycles[id(lane)] > max_cycles_per_path:
                raise PathExplosionError(
                    f"{program.name}: path exceeded {max_cycles_per_path} cycles"
                )
            view = batch.lane_view(lane)
            if cpu.halted(view):
                node.end = "halt"
            elif cpu.pc_next_unknown(view):
                assignments = cpu.branch_fork_assignments(view)
                node.records.pop()
                lane_cycles[id(lane)] -= 1
                total_cycles -= 1
                node.end = "fork"
                snapshot = snap_before[id(lane)]
                for assignment in assignments:
                    key = _memo_key(evaluator, snapshot, assignment)
                    node.forks.append((assignment, key))
                    if key not in seen:
                        seen.add(key)
                        stack.append(
                            _Pending(
                                snapshot=snapshot,
                                forces=assignment,
                                parent=None,  # assigned by the replay
                                memo_key=key,
                            )
                        )
            else:
                continue
            batch.retire(lane)
            del lane_node[id(lane)], lane_cycles[id(lane)]
        refill()

    return _assemble_tree(
        nodes,
        machine.netlist.n_nets,
        packing=getattr(evaluator, "program", None),
    )


def _assemble_tree(
    nodes: dict[bytes, _Node], n_nets: int, packing=None
) -> ExecutionTree:
    """Replay the scalar engine's stack discipline over the segment graph.

    Segment content is order-independent (a memo key determines its whole
    future), but segment *numbering*, parents, memo-hit bookkeeping and the
    flat-trace layout all encode the scalar engine's depth-first pop order.
    Replaying that order over the discovered ``{key: node}`` graph makes the
    batched tree bit-identical to the scalar one.
    """
    flat = Trace(n_nets)
    flat.packing = packing
    segments: list[Segment] = []
    index_of: dict[bytes, int] = {}
    patches: list[tuple[int, int, bytes]] = []
    n_memo_hits = 0

    stack: list[tuple[bytes, tuple[int, int] | None]] = [(_ROOT_KEY, None)]
    seen: set[bytes] = {_ROOT_KEY}
    while stack:
        key, parent = stack.pop()
        node = nodes[key]
        segment = Segment(index=len(segments), parent=parent)
        segment.flat_start = len(flat)
        segment.n_cycles = len(node.records)
        segment.end = node.end
        segments.append(segment)
        index_of[key] = segment.index
        flat.records.extend(node.records)
        for assignment, child_key in node.forks:
            fork_no = len(segment.forks)
            segment.forks.append(Fork(assignment, -1))
            patches.append((segment.index, fork_no, child_key))
            if child_key in seen:
                n_memo_hits += 1
            else:
                seen.add(child_key)
                stack.append((child_key, (segment.index, fork_no)))

    for seg_index, fork_no, child_key in patches:
        segments[seg_index].forks[fork_no].target = index_of[child_key]

    tree = ExecutionTree(
        segments=segments, flat_trace=flat, n_memo_hits=n_memo_hits
    )
    _check_resolved(tree)
    return tree


def _check_resolved(tree: ExecutionTree) -> None:
    for segment in tree.segments:
        for fork in segment.forks:
            if fork.target < 0:
                raise AssertionError(
                    f"unresolved fork target in segment {segment.index}"
                )

"""Input-independent gate activity analysis (Algorithm 1).

Symbolic simulation of the application binary on the processor netlist:
all inputs are X, the machine steps until the *next* program counter value
would contain an X — an input-dependent conditional branch.  The run then
forks: for every concretization of the unknown status flags the branch
reads, a pending path is pushed, keyed by the (state, assignment) pair so
already-simulated paths are never re-simulated (this is what lets
input-dependent loops terminate).

One drain loop implements the exploration: it pops pending paths up to
``batch_size`` at a time onto the lanes of a
:class:`~repro.sim.batch.BatchMachine`, settles all of them per cycle in
lock-step, and refills retired lanes from the queue mid-flight so the
batch stays full (``batch_size=1`` is a one-lane batch).

The lanes finish segments in whatever order the schedule happens to
visit them, but a pending path's entire future is determined by its
memoization key, so the *set* of segments does not depend on the
schedule.  A replay then walks the discovered segment graph with a
depth-first stack, and that replay *defines* the canonical tree:
segment indices, parents, fork targets and the flat-trace layout.  Every
engine and every batch width yields the same tree, bit for bit;
``tests/golden_trees.json`` pins its digest for every benchmark.

The output is an :class:`ExecutionTree`: a set of trace *segments* linked
by fork edges (including memoized back/cross edges), plus the flattened
concatenated trace that Algorithm 2 consumes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.asm.program import Program
from repro.service import faults
from repro.sim.batch import BatchMachine
from repro.sim.trace import CycleRecord, Trace

#: batch width used when ``explore(..., batch_size=None)``; override with
#: the ``REPRO_BATCH_SIZE`` environment variable (1 = a one-lane batch).
DEFAULT_BATCH_SIZE = 8

#: wider default for the native engine: the batch step kernel costs
#: nearly the same for 1 lane as for 64, so deep pending-path queues
#: benefit from more lanes at negligible memory cost (a lane is ~18 KB of
#: packed planes).  On the multipath benchmarks 16, 32 and 64 measured
#: alike: the trees rarely hold more than ~8 pending paths at once.
NATIVE_DEFAULT_BATCH_SIZE = 32


def default_batch_size(engine: str | None = None) -> int:
    """Batch width for *engine* honoring ``REPRO_BATCH_SIZE``.

    Pass the engine actually built (``"native"`` only when the native
    evaluator loaded), not the one requested: a host that fell back
    explores the reference engine at its own width.
    """
    raw = os.environ.get("REPRO_BATCH_SIZE")
    if not raw:
        if engine == "native":
            return NATIVE_DEFAULT_BATCH_SIZE
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
        """True when memoization produced a loop (input-dependent loop).

        An iterative depth-first walk from the root: a tree is as deep as
        its longest fork chain, which a counted loop with an early exit
        makes thousands of segments long.
        """
        on_path = {0}
        done: set[int] = set()
        stack = [(0, iter(self.segments[0].forks))]
        while stack:
            node, forks = stack[-1]
            for fork in forks:
                if fork.target in on_path:
                    return True
                if fork.target not in done:
                    on_path.add(fork.target)
                    stack.append(
                        (fork.target, iter(self.segments[fork.target].forks))
                    )
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
        return False

    def digest(self) -> str:
        """Hex blake2b of everything that makes two trees identical.

        Covers the segment list (index, parent, flat start, length, end),
        every fork's sorted flag assignment and target, the memo-hit
        count, the value, activity and memory-access matrices, and each
        record's cycle number and annotations.  Only exact data goes in,
        so the digest does not depend on the engine, the batch width or
        the numpy version; ``tests/golden_trees.json`` pins it for the
        Table 4.1 benchmarks.
        """
        h = hashlib.blake2b(digest_size=16)

        def put(obj) -> None:
            h.update(json.dumps(obj, sort_keys=True, default=int).encode())

        for segment in self.segments:
            put([
                segment.index, segment.parent, segment.flat_start,
                segment.n_cycles, segment.end,
                [
                    [sorted(fork.assignment.items()), fork.target]
                    for fork in segment.forks
                ],
            ])
        put(self.n_memo_hits)
        flat = self.flat_trace
        h.update(flat.values_matrix().tobytes())
        h.update(flat.active_matrix().tobytes())
        h.update(flat.mem_accesses().tobytes())
        for record in flat.records:
            put([record.cycle, record.annotations])
        return h.hexdigest()


@dataclass
class _Pending:
    snapshot: dict
    forces: dict[int, int]
    memo_key: bytes


def _memo_key(evaluator, snapshot: dict, forces: dict[int, int]) -> bytes:
    """Key = architectural state at the branch + the flag concretization.

    *evaluator* (any engine) tells the fingerprint how to read the
    snapshot's state array; the induced equivalence relation — and hence
    the execution tree — is representation-independent.
    """
    from repro.sim.machine import Machine

    h = hashlib.blake2b(digest_size=16)
    h.update(Machine.snapshot_state_key(snapshot, evaluator))
    for net in sorted(forces):
        h.update(net.to_bytes(4, "little"))
        h.update(forces[net].to_bytes(1, "little"))
    return h.digest()


_ROOT_KEY = b"root"


# NOTE: tests/golden_trees.json pins every benchmark's tree by digest.
# Any change to the fork semantics — the pre-step snapshot, the
# dispatch-record pop, the memo-key enumeration — or to the replay order
# in _assemble_tree shows up there, tree for tree.
@dataclass
class _Node:
    """One simulated path segment, keyed by its memoization key."""

    key: bytes
    records: list[CycleRecord] = field(default_factory=list)
    end: str = ""
    #: (flag assignment, child memo key) in branch-enumeration order
    forks: list[tuple[dict[int, int], bytes]] = field(default_factory=list)


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

    *batch_size* is the number of pending paths settled in lock-step
    (``1`` = a one-lane batch); ``None`` (the default) uses
    :func:`default_batch_size`.  *engine* selects the simulation
    representation: ``"native"`` (the compiled C kernels on packed dual
    rail, the default; the reference engine when no C compiler is
    available) or ``"reference"`` (the uint8 oracle); ``None`` honors
    ``REPRO_ENGINE``.  The default width follows the engine actually
    built.  The exploration runs in the calling
    process; cores are spent across analyses (``suite --jobs``, service
    job slots), not inside one.
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
    machine = cpu.make_machine(program, symbolic_inputs=True, engine=engine)
    if batch_size is None:
        packed = getattr(machine.evaluator, "packed", False)
        batch_size = default_batch_size("native" if packed else "reference")
    batch_size = max(1, batch_size)
    # a packed batch records packed words, unpacked at the trace boundary
    # (lazy per record, bulk for values_matrix/active_matrix), so the
    # explore loop never unpacks a row it only forks from.  The replay in
    # _assemble_tree is representation-agnostic.
    batch = BatchMachine(
        machine.netlist,
        machine.ports,
        machine.evaluator,
        batch_size,
        annotator=machine.annotator,
    )
    evaluator = machine.evaluator

    root = _Pending(snapshot=machine.snapshot(), forces={}, memo_key=_ROOT_KEY)
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
        # concrete flags).
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
    """Number the discovered segment graph: the canonical tree.

    Segment content is order-independent (a memo key determines its whole
    future), so this replay alone fixes segment *numbering*, parents,
    memo-hit bookkeeping and the flat-trace layout: a depth-first stack
    from the root that pops the most recently pushed child first and
    pushes a fork's unseen children in branch-enumeration order.  The
    tree digests in ``tests/golden_trees.json`` pin the result.
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

    return ExecutionTree(
        segments=segments, flat_trace=flat, n_memo_hits=n_memo_hits
    )

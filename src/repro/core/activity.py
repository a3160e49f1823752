"""Input-independent gate activity analysis (Algorithm 1).

Symbolic simulation of the application binary on the processor netlist:
all inputs are X, the machine steps until the *next* program counter value
would contain an X — an input-dependent conditional branch.  The run then
forks: for every concretization of the unknown status flags the branch
reads, a pending path is pushed, keyed by the (state, assignment) pair so
already-simulated paths are never re-simulated (this is what lets
input-dependent loops terminate).

One drain loop implements the exploration: it pops pending paths onto
the lanes of a :class:`~repro.sim.batch.BatchMachine` (as many as
:func:`default_batch_size` gives the engine built), settles all of them
in lock-step, and refills retired lanes from the queue mid-flight so the
batch stays full.  One batch call runs the lanes until some lane halts,
its next PC goes X, it stores, or a budget ends the call (the native
engine runs those cycles in one foreign call).  The CPU probes run once
after each call, read the whole batch at once and give lane masks:
halted, next PC unknown.  Only the lanes that halt or fork are visited
one by one.  A fork restarts its children from the lane's state
*before* the dispatch cycle: the batch rebuilds it from the lane's
previous arena row, or, when the dispatch was the lane's first step,
the explorer's snapshot taken when it loaded the lane.

The lanes finish segments in whatever order the schedule happens to
visit them, but a pending path's entire future is determined by its
memoization key, so the *set* of segments does not depend on the
schedule.  A replay then walks the discovered segment graph with a
depth-first stack, and that replay *defines* the canonical tree:
segment indices, parents, fork targets and the flat-trace layout.  Every
engine and every lane count yields the same tree, bit for bit;
``tests/golden_trees.json`` pins its digest for every benchmark.

The output is an :class:`ExecutionTree`: a set of trace *segments* linked
by fork edges (including memoized back/cross edges), plus the flattened
concatenated trace that Algorithm 2 consumes.  Every step's rows land in
the batch's arena; the loop only tags them with their lanes' segments,
and the replay gathers each segment's rows once into the flat trace.
It records no annotations: the tree decodes each cycle's FSM state, PC and
instruction word from the flat trace's values when the COI analysis or
:meth:`ExecutionTree.digest` asks (:meth:`ExecutionTree.annotations`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.asm.program import Program
from repro.service import faults
from repro.sim.batch import BatchMachine
from repro.sim.machine import Machine
from repro.sim.trace import Trace, group_rows

#: lock-step lanes of an exploration on the reference engine
DEFAULT_BATCH_SIZE = 8

#: wider on the native engine: the batch step kernel costs
#: nearly the same for 1 lane as for 64, so deep pending-path queues
#: benefit from more lanes at negligible memory cost (a ULP430 lane is
#: 2.3 KB of packed planes; the step's lane-sliced state is 0.3 MB per
#: group of up to 64 lanes).  On the multipath benchmarks 16, 32 and 64
#: measured alike: the trees rarely hold more than ~8 pending paths at
#: once.
NATIVE_DEFAULT_BATCH_SIZE = 32


def default_batch_size(engine: str | None = None) -> int:
    """Exploration width (lock-step lanes) for *engine*.

    Pass the engine actually built (``"native"`` only when the native
    evaluator loaded), not the one requested: a host that fell back
    explores the reference engine at its own width.
    """
    if engine == "native":
        return NATIVE_DEFAULT_BATCH_SIZE
    return DEFAULT_BATCH_SIZE


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
    #: decodes a trace's COI annotations (the CPU's ``annotate``)
    annotate: Callable[[Trace], list[dict]] | None = None

    @property
    def n_cycles(self) -> int:
        return len(self.flat_trace)

    def segment_slice(self, segment: Segment) -> slice:
        return slice(segment.flat_start, segment.flat_start + segment.n_cycles)

    def toggled_any(self) -> np.ndarray:
        """Gates that can toggle in *some* execution — Figure 3.4's set."""
        return self.flat_trace.toggled_any()

    def annotations(self) -> list[dict]:
        """Each flat-trace cycle's COI annotations (FSM state, PC,
        instruction word), decoded from the stored values."""
        return self.annotate(self.flat_trace)

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
        record's cycle number and decoded annotations.  Only exact data
        goes in, so the digest does not depend on the engine, the batch
        width or the numpy version; ``tests/golden_trees.json`` pins it
        for the Table 4.1 benchmarks.
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
        for cycle, notes in zip(flat.cycles().tolist(), self.annotations()):
            put([cycle, notes])
        return h.hexdigest()


@dataclass
class _Pending:
    snapshot: dict
    forces: dict[int, int]
    memo_key: bytes


def _memo_key(state: bytes, forces: dict[int, int]) -> bytes:
    """Key = architectural state at the branch + the flag concretization.

    *state* is the branch snapshot's
    :meth:`~repro.sim.machine.Machine.snapshot_state_key`, taken once per
    fork; the fingerprint reads either engine's state array, and the
    induced equivalence relation — hence the execution tree — is
    representation-independent.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(state)
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
    #: its rows in the trace it is assembled from (the batch's arena)
    rows: np.ndarray | None = None
    end: str = ""
    #: (flag assignment, child memo key) in branch-enumeration order
    forks: list[tuple[dict[int, int], bytes]] = field(default_factory=list)


def explore(
    cpu,
    program: Program,
    max_cycles: int = 200_000,
    max_segments: int = 4_096,
    max_cycles_per_path: int = 50_000,
    engine: str | None = None,
    cancel=None,
) -> ExecutionTree:
    """Run Algorithm 1 for *program* on the gate-level *cpu*.

    *engine* selects the simulation representation: ``"native"`` (the
    compiled C kernels on packed dual rail) or ``"reference"`` (the
    uint8 oracle); ``None``, as every analysis passes it, is native, or
    the reference engine when the kernel cannot be built.  The number of
    pending paths settled in lock-step follows the engine actually built
    (:func:`default_batch_size`).  The exploration runs in the calling
    process; cores are spent across analyses (``suite --jobs``, service
    job slots), not inside one.  Both engines return the identical
    tree, bit for bit.  *cancel* is an optional
    :class:`repro.parallel.cancel.CancelToken` checked (and its heartbeat
    fired, and the ``explore.batch`` fault site hit) once per batch
    call, so at least every :data:`~repro.sim.batch.MAX_STEPS` cycles; a
    set token aborts the exploration with
    :class:`repro.parallel.cancel.JobCancelled` (results are never
    altered by cancellation, only abandoned).  Each call is sized to end
    at the cycle that overruns *max_cycles* or *max_cycles_per_path*,
    so a budget error comes at the same cycle as with one-cycle calls.

    Returns the annotated execution tree.  Raises
    :class:`PathExplosionError` when the exploration budget is exceeded and
    :class:`repro.cpu.UnresolvedPCError` when the PC becomes X outside a
    forkable conditional branch.
    """
    machine = cpu.make_machine(program, symbolic_inputs=True, engine=engine)
    packed = getattr(machine.evaluator, "packed", False)
    batch = BatchMachine(
        machine.netlist,
        machine.ports,
        machine.evaluator,
        default_batch_size("native" if packed else "reference"),
        stops=cpu.batch_stops(),
    )
    evaluator = machine.evaluator

    root = _Pending(snapshot=machine.snapshot(), forces={}, memo_key=_ROOT_KEY)
    stack: list[_Pending] = [root]
    seen: set[bytes] = {root.memo_key}
    nodes: dict[bytes, _Node] = {}
    total_cycles = 0
    steps = 0

    order: list[_Node] = []  # a node's tag is its position here
    lane_node: dict[int, _Node] = {}  # id(lane) -> segment being simulated
    lane_start: dict[int, int] = {}  # id(lane) -> steps when it was loaded
    # a fork restarts its children from the state *before* the
    # X-condition dispatch cycle (they re-execute it with concrete
    # flags).  The batch keeps that state for the last step of a call,
    # except for a lane whose last step was its first: each loaded lane
    # is snapshotted before its first call
    fresh: dict[int, dict] = {}
    # each call's rows are tagged with their lanes' node; a popped
    # dispatch row is tagged -1 and belongs to no segment
    tags: list[np.ndarray] = []
    popped: list[int] = []

    def start(pending: _Pending) -> None:
        if len(nodes) >= max_segments:
            raise PathExplosionError(
                f"{program.name}: more than {max_segments} path segments"
            )
        node = _Node(key=pending.memo_key)
        nodes[pending.memo_key] = node
        lane = batch.load(pending.snapshot, pending.forces)
        lane.tag = len(order)
        order.append(node)
        lane_node[id(lane)] = node
        lane_start[id(lane)] = steps
        fresh[id(lane)] = batch.snapshot(lane)

    def refill() -> np.ndarray:
        while stack and batch.n_free:
            start(stack.pop())
        return np.array([lane.tag for lane in batch.lanes])

    lane_tags = refill()
    while batch.lanes:
        if cancel is not None:
            cancel.check()
        faults.hit("explore.batch")
        live = len(batch.lanes)
        # a call ends at the step that overruns a budget, if none before
        rows = batch.step(min(
            (max_cycles - total_cycles) // live + 1,
            max_cycles_per_path - (steps - min(lane_start.values())) + 1,
        ))
        taken = len(rows) // live
        tags.append(np.tile(lane_tags, taken))
        steps += taken
        lanes = list(batch.lanes)
        # the probes read every lane at once; only the lanes that halt or
        # fork are visited one by one
        halted = cpu.halted(batch)
        forking = cpu.pc_next_unknown(batch) & ~halted
        halt_rows = halted.nonzero()[0].tolist()
        fork_rows = forking.nonzero()[0].tolist()
        total_cycles += taken * live - len(fork_rows)
        if total_cycles > max_cycles:
            raise PathExplosionError(
                f"{program.name}: exceeded {max_cycles} total cycles"
            )
        if steps - min(lane_start.values()) > max_cycles_per_path:
            raise PathExplosionError(
                f"{program.name}: path exceeded {max_cycles_per_path} cycles"
            )
        loaded, fresh = fresh, {}
        if not (halt_rows or fork_rows):
            continue
        forks = cpu.branch_fork_assignments(batch) if fork_rows else {}
        for row in halt_rows:
            lane_node[id(lanes[row])].end = "halt"
        last = rows[len(rows) - live :]  # the rows of the call's last step
        for row in fork_rows:
            lane = lanes[row]
            snapshot = loaded.get(id(lane)) if taken == 1 else None
            if snapshot is None:
                snapshot = batch.snapshot(lane, before_step=True)
            node = lane_node[id(lane)]
            popped.append(last[row])  # the children re-run the dispatch cycle
            node.end = "fork"
            state = Machine.snapshot_state_key(snapshot, evaluator)
            for assignment in forks[row]:
                key = _memo_key(state, assignment)
                node.forks.append((assignment, key))
                if key not in seen:
                    seen.add(key)
                    stack.append(
                        _Pending(
                            snapshot=snapshot, forces=assignment, memo_key=key
                        )
                    )
        for row in halt_rows + fork_rows:
            lane = lanes[row]
            del lane_node[id(lane)], lane_start[id(lane)]
            batch.retire(lane)
        lane_tags = refill()

    tag = np.concatenate(tags)
    tag[popped] = -1
    for node, rows in zip(order, group_rows(tag, len(order))):
        node.rows = rows
    return _assemble_tree(nodes, batch.arena, cpu.annotate)


def _assemble_tree(
    nodes: dict[bytes, _Node], arena: Trace, annotate: Callable
) -> ExecutionTree:
    """Number the discovered segment graph: the canonical tree.

    Segment content is order-independent (a memo key determines its whole
    future), so this replay alone fixes segment *numbering*, parents,
    memo-hit bookkeeping and the flat-trace layout: a depth-first stack
    from the root that pops the most recently pushed child first and
    pushes a fork's unseen children in branch-enumeration order.  The
    tree digests in ``tests/golden_trees.json`` pin the result.  The
    segments' rows of *arena* are gathered once, in that order, into the
    flat trace's own block; *annotate* decodes their annotations.
    """
    segments: list[Segment] = []
    index_of: dict[bytes, int] = {}
    patches: list[tuple[int, int, bytes]] = []
    flat_rows: list[np.ndarray] = []
    n_memo_hits = 0
    n_cycles = 0

    stack: list[tuple[bytes, tuple[int, int] | None]] = [(_ROOT_KEY, None)]
    seen: set[bytes] = {_ROOT_KEY}
    while stack:
        key, parent = stack.pop()
        node = nodes[key]
        segment = Segment(index=len(segments), parent=parent)
        segment.flat_start = n_cycles
        segment.n_cycles = len(node.rows)
        segment.end = node.end
        segments.append(segment)
        index_of[key] = segment.index
        flat_rows.append(node.rows)
        n_cycles += len(node.rows)
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
        segments=segments, flat_trace=arena.take(np.concatenate(flat_rows)),
        n_memo_hits=n_memo_hits, annotate=annotate,
    )

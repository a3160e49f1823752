"""The CPU probes on a whole batch, and the explorer's snapshot rule.

The probes (``halted``, ``pc_next_unknown``, ``in_dispatch``,
``may_fork_next``, ``branch_fork_assignments``) take a scalar
:class:`~repro.sim.machine.Machine` or a whole
:class:`~repro.sim.batch.BatchMachine`.  The batch forms read one column
per bus and must agree lane for lane with the scalar forms, on both
engines, whether the batch answers from its rows (lanes just loaded) or
from the probe columns of its last step.

The COI annotations are decoded from a trace's packed values
(``Ulp430.annotate``): at the same points, on both engines, they must
equal what ``peek_bus`` reads from the state, instruction-word and PC
buses after each recorded cycle.

The explorer snapshots a lane only before a step that may fork: it must
take no more snapshots than there are dispatch-bound lane-steps plus
loads, and a fork without a pre-step snapshot is an internal error.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.bench.suite import get_benchmark
from repro.core import explore
from repro.cpu import UnresolvedPCError
from repro.cpu.core import STATE_NAMES, Ulp430
from repro.sim.batch import BatchMachine
from repro.sim.machine import Machine
from repro.sim.trace import Trace

PROBES = ("halted", "pc_next_unknown", "in_dispatch", "may_fork_next")


def _explore_spied(cpu, name: str, engine: str) -> dict:
    """Explore *name*; every batch snapshot, load and step record."""
    seen = {"snapshots": [], "loads": 0, "records": []}
    snapshot, load, step = (
        BatchMachine.snapshot, BatchMachine.load, BatchMachine.step
    )

    def spy_snapshot(self, lane):
        seen["snapshots"].append(snapshot(self, lane))
        return seen["snapshots"][-1]

    def spy_load(self, *args):
        seen["loads"] += 1
        return load(self, *args)

    def spy_step(self):
        records = step(self)
        seen["records"] += records
        return records

    benchmark = get_benchmark(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchMachine, "snapshot", spy_snapshot)
        patch.setattr(BatchMachine, "load", spy_load)
        patch.setattr(BatchMachine, "step", spy_step)
        explore(
            cpu, benchmark.program(), max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments, engine=engine,
        )
    return seen


def _machine(cpu, snap: dict, engine: str) -> Machine:
    machine = Machine(cpu.netlist, cpu.ports, cpu.evaluator_for(engine))
    machine.restore(snap)
    return machine


def _points(cpu, name: str, engine: str, count: int, seed: int) -> list[dict]:
    """*count* states of *name*'s exploration: random short scalar walks
    from the explorer's snapshots (stopping at a halt or an X PC), plus
    one concrete run's halted state."""
    rng = np.random.default_rng(seed)
    snapshots = _explore_spied(cpu, name, engine)["snapshots"]
    points = []
    for index in rng.choice(len(snapshots), count, replace=False):
        machine = _machine(cpu, snapshots[index], engine)
        for _ in range(int(rng.integers(0, 12))):
            if cpu.halted(machine) or cpu.pc_next_unknown(machine):
                break
            machine.step()
        points.append(machine.snapshot())
    benchmark = get_benchmark(name)
    [inputs] = benchmark.input_sets(1)
    machine = cpu.make_machine(
        benchmark.program().with_inputs(inputs), symbolic_inputs=False,
        port_in=0, engine=engine,
    )
    cpu.run_to_halt(machine, max_cycles=benchmark.max_cycles)
    points.append(machine.snapshot())
    return points


def _assert_lanes_agree(cpu, batch, machines, seen: set) -> None:
    for name in PROBES:
        probe = getattr(cpu, name)
        column = probe(batch)
        scalars = [probe(machine) for machine in machines]
        assert all(isinstance(value, bool) for value in scalars)
        assert column.dtype == bool and column.tolist() == scalars, name
        seen.update(name for value in scalars if value)
    expected, unforkable = {}, False
    for row, machine in enumerate(machines):
        if cpu.pc_next_unknown(machine):
            try:
                expected[row] = cpu.branch_fork_assignments(machine)
            except UnresolvedPCError:
                unforkable = True
    if unforkable:
        with pytest.raises(UnresolvedPCError):
            cpu.branch_fork_assignments(batch)
    else:
        assert cpu.branch_fork_assignments(batch) == expected


def _peeked_annotations(cpu, machine) -> list[dict]:
    """The annotations of the cycle *machine* (or each batch lane) just
    settled, read bus by bus with ``peek_bus``."""
    buses = [
        np.atleast_1d(np.asarray(column, dtype=np.uint64)).tolist()
        for nets in (cpu.nets.state_q, cpu.nets.iw, cpu.nets.pc_q)
        for column in machine.peek_bus(nets)
    ]
    return [
        {
            "state": "X" if state_x else STATE_NAMES.get(state, "X"),
            "pc": pc,
            "iw": None if iw_x else iw,
        }
        for state, state_x, iw, iw_x, pc, _pc_x in zip(*buses)
    ]


def _assert_decoded_annotations(cpu, records, peeked) -> None:
    trace = Trace(cpu.netlist.n_nets)
    for record in records:
        trace.append(record)
    assert cpu.annotate(trace) == peeked


class TestBatchProbeForms:
    @pytest.mark.parametrize("engine", ["native", "reference"])
    @pytest.mark.parametrize(
        "name, seed", [("Viterbi", 0), ("binSearch", 1), ("tHold", 2)]
    )
    def test_batch_forms_match_scalar_forms(self, cpu, engine, name, seed):
        points = _points(cpu, name, engine, 20, seed)
        evaluator = cpu.evaluator_for(engine)
        batch = BatchMachine(cpu.netlist, cpu.ports, evaluator, len(points))
        assert (batch.kernel is not None) == (engine == "native")
        for snap in points:
            batch.load(snap, snap["next_dff_forces"])
        machines = [_machine(cpu, snap, engine) for snap in points]
        seen: set = set()
        _assert_lanes_agree(cpu, batch, machines, seen)  # from the rows
        records = batch.step()
        _assert_decoded_annotations(
            cpu, records, _peeked_annotations(cpu, batch)
        )
        scalar_records, peeked = [], []
        for machine in machines:
            scalar_records.append(machine.step())
            peeked += _peeked_annotations(cpu, machine)
        _assert_decoded_annotations(cpu, scalar_records, peeked)
        assert len({notes["state"] for notes in peeked}) > 1
        _assert_lanes_agree(cpu, batch, machines, seen)  # from the columns
        # the sample reaches every answer, not just the common "no"
        assert seen == set(PROBES)

    def test_wide_bus_is_refused(self, cpu):
        batch = BatchMachine(cpu.netlist, cpu.ports, cpu.evaluator, 1)
        with pytest.raises(ValueError, match="at most 64 nets"):
            batch.peek_bus(list(range(65)))


class TestSnapshotRule:
    def test_viterbi_snapshots_only_dispatch_bound_lane_steps(self, cpu):
        seen = _explore_spied(cpu, "Viterbi", "native")
        # a lane-step that may be a DISPATCH records the state it may be
        trace = Trace(cpu.netlist.n_nets)
        for record in seen["records"]:
            trace.append(record)
        dispatch_bound = sum(
            notes["state"] in ("DISPATCH", "X")
            for notes in cpu.annotate(trace)
        )
        snapshots = len(seen["snapshots"])
        assert snapshots <= dispatch_bound + seen["loads"]
        assert snapshots < len(seen["records"]) / 2

    def test_fork_without_snapshot_is_an_internal_error(
        self, cpu, monkeypatch
    ):
        monkeypatch.setattr(
            Ulp430, "may_fork_next",
            lambda self, machine: np.zeros(len(machine.lanes), dtype=bool),
        )
        one_branch = assemble(
            ".org 0xF000\nstart: mov #inp, r4\n mov @r4, r5\n tst r5\n"
            " jz done\n mov #1, r6\ndone: jmp done\n"
            ".org 0x0240\ninp: .input 1\n",
            "one_branch",
        )
        with pytest.raises(RuntimeError, match="internal error"):
            explore(cpu, one_branch)

"""The CPU probes on a whole batch, and the explorer's snapshot rule.

The probes (``halted``, ``pc_next_unknown``, ``in_dispatch``,
``branch_fork_assignments``) take a scalar
:class:`~repro.sim.machine.Machine` or a whole
:class:`~repro.sim.batch.BatchMachine`.  The batch forms read one column
per bus and must agree lane for lane with the scalar forms, on both
engines, whether the batch answers from its rows (lanes just loaded) or
from the probe columns of its last step.

The COI annotations are decoded from a trace's packed values
(``Ulp430.annotate``): at the same points, on both engines, they must
equal what ``peek_bus`` reads from the state, instruction-word and PC
buses after each recorded cycle.

The explorer snapshots a lane when it loads it and when it forks, never
while it runs: a fork's pre-step state is rebuilt from the lane's
previous arena row, which needs a step before the last one.
"""

import numpy as np
import pytest

from repro.bench.suite import get_benchmark
from repro.core import explore
from repro.cpu import UnresolvedPCError
from repro.cpu.core import STATE_NAMES
from repro.sim.batch import BatchMachine
from repro.sim.machine import Machine
from repro.sim.trace import Trace

PROBES = ("halted", "pc_next_unknown", "in_dispatch")


def _explore_spied(cpu, name: str, engine: str) -> dict:
    """Explore *name*; every batch snapshot, load and step record."""
    seen = {"snapshots": [], "loads": 0, "rows": []}
    snapshot, load, step = (
        BatchMachine.snapshot, BatchMachine.load, BatchMachine.step
    )

    def spy_snapshot(self, lane, **kwargs):
        seen["snapshots"].append(snapshot(self, lane, **kwargs))
        return seen["snapshots"][-1]

    def spy_load(self, *args):
        seen["loads"] += 1
        return load(self, *args)

    def spy_step(self, *args):
        rows = step(self, *args)
        seen["rows"] += rows
        seen["arena"] = self.arena
        return rows

    benchmark = get_benchmark(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchMachine, "snapshot", spy_snapshot)
        patch.setattr(BatchMachine, "load", spy_load)
        patch.setattr(BatchMachine, "step", spy_step)
        seen["tree"] = explore(
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


def _assert_decoded_annotations(cpu, trace, peeked) -> None:
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
        rows = batch.step()
        _assert_decoded_annotations(
            cpu, batch.arena.view(rows), _peeked_annotations(cpu, batch)
        )
        scalar_trace, peeked = Trace(cpu.netlist.n_nets), []
        for machine in machines:
            machine.step(trace=scalar_trace)
            peeked += _peeked_annotations(cpu, machine)
        _assert_decoded_annotations(cpu, scalar_trace, peeked)
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
        trace = seen["arena"].view(seen["rows"])
        dispatch_bound = sum(
            notes["state"] in ("DISPATCH", "X")
            for notes in cpu.annotate(trace)
        )
        snapshots = len(seen["snapshots"])
        assert snapshots <= dispatch_bound + seen["loads"]
        # one per load and one per fork, none while a lane runs
        forks = sum(segment.end == "fork" for segment in seen["tree"].segments)
        assert snapshots == seen["loads"] + forks

    @pytest.mark.parametrize("engine", ["native", "reference"])
    def test_before_step_snapshot_needs_an_earlier_row(self, cpu, engine):
        """A lane's state before its first step is in no arena row, so
        only the caller's load snapshot holds it; from the second step
        on, the batch rebuilds the pre-step state, which equals a
        snapshot taken before that step."""
        program = get_benchmark("mult").program()
        machine = cpu.make_machine(program, engine=engine)
        batch = BatchMachine(
            cpu.netlist, cpu.ports, cpu.evaluator_for(engine), 1
        )
        lane = batch.load(machine.snapshot(), {})
        batch.step()
        with pytest.raises(ValueError, match="its first"):
            batch.snapshot(lane, before_step=True)
        for _ in range(6):
            expected = batch.snapshot(lane)
            batch.step()
            got = batch.snapshot(lane, before_step=True)
            assert got.keys() == expected.keys()
            for key in ("values", "prev_active"):
                assert np.array_equal(
                    np.asarray(got[key]), np.asarray(expected[key])
                ), key
            assert got["memory"].digest() == expected["memory"].digest()
            for key in ("cycle", "dout_value", "dout_xmask",
                        "forced_inputs", "next_dff_forces"):
                assert got[key] == expected[key], key
            assert vars(got["request"]) == vars(expected["request"])

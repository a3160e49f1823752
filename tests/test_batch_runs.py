"""Multi-cycle batch calls at their boundaries: budgets and cancellation.

One :meth:`BatchMachine.step` call runs up to ``batch.MAX_STEPS`` cycles,
so the callers size each call to end at the cycle that overruns a
budget.  Every budget error must then come with the same message after
the same simulated rows as one-cycle calls (``MAX_STEPS = 1``), the
stepping the explorer and ``run_batch_to_halt`` did before calls ran
many cycles.  The cancel check and the heartbeat come once per call, so
a long straight path reaches one at least every ``MAX_STEPS`` cycles.
"""

import math

import pytest

from repro.asm import assemble
from repro.bench.suite import get_benchmark
from repro.core.activity import PathExplosionError, explore
from repro.cpu import HaltBudgetError, UnresolvedPCError
from repro.parallel.cancel import CancelToken, JobCancelled
from repro.sim import batch as batch_module
from repro.sim.batch import BatchMachine, run_batch_to_halt

#: one path of about 5,000 cycles: a counted loop with no X anywhere
LONG_LOOP = assemble(
    ".org 0xF000\nstart: mov #1000, r4\nloop: dec r4\n jnz loop\n"
    "done: jmp done\n",
    "long_loop",
)


def _raised_after(run, monkeypatch, max_steps=None):
    """(error type, message, rows simulated) of *run*, which must raise;
    *max_steps* replaces ``MAX_STEPS`` for the run."""
    rows = []
    step = BatchMachine.step

    def counted(self, *args):
        taken = step(self, *args)
        rows.append(taken.stop)
        return taken

    with monkeypatch.context() as patch:
        patch.setattr(BatchMachine, "step", counted)
        if max_steps is not None:
            patch.setattr(batch_module, "MAX_STEPS", max_steps)
        with pytest.raises(Exception) as raised:
            run()
    return type(raised.value), str(raised.value), rows[-1]


def _same_as_one_cycle_calls(run, monkeypatch, error, message):
    got = _raised_after(run, monkeypatch)
    assert got == _raised_after(run, monkeypatch, max_steps=1)
    assert got[:2] == (error, message)


@pytest.mark.parametrize("engine", ["native", "reference"])
class TestBudgetsAtTheExactStep:
    def test_total_cycles(self, cpu, engine, monkeypatch):
        program = get_benchmark("binSearch").program()
        _same_as_one_cycle_calls(
            lambda: explore(cpu, program, max_cycles=300, engine=engine),
            monkeypatch, PathExplosionError,
            "binSearch: exceeded 300 total cycles",
        )

    def test_cycles_per_path(self, cpu, engine, monkeypatch):
        _same_as_one_cycle_calls(
            lambda: explore(
                cpu, LONG_LOOP, max_cycles_per_path=321, engine=engine
            ),
            monkeypatch, PathExplosionError,
            "long_loop: path exceeded 321 cycles",
        )

    def test_halt_budget(self, cpu, engine, monkeypatch):
        benchmark = get_benchmark("mult")
        machines = [
            cpu.make_machine(
                benchmark.program().with_inputs(inputs),
                symbolic_inputs=False, port_in=0, engine=engine,
            )
            for inputs in benchmark.input_sets(3, seed=1)
        ]
        _same_as_one_cycle_calls(
            lambda: run_batch_to_halt(cpu, machines, max_cycles=70),
            monkeypatch, HaltBudgetError, "no halt within 70 cycles",
        )

    def test_unresolved_pc(self, cpu, engine, monkeypatch):
        program = get_benchmark("binSearch").program()
        _same_as_one_cycle_calls(
            lambda: run_batch_to_halt(
                cpu, [cpu.make_machine(program, engine=engine)]
            ),
            monkeypatch, UnresolvedPCError,
            "concrete run reached an unknown PC; did you forget "
            "Program.with_inputs()?",
        )


class _SetAfter:
    """A cancel event that reads set from its (k + 1)-th check on."""

    def __init__(self, k: int):
        self.k, self.checks = k, 0

    def is_set(self) -> bool:
        self.checks += 1
        return self.checks > self.k


class TestCancellationPerCall:
    def test_heartbeat_at_least_once_per_max_steps_cycles(self, cpu):
        beats = []
        tree = explore(
            cpu, LONG_LOOP, cancel=CancelToken(heartbeat=lambda: beats.append(1))
        )
        assert len(tree.segments) == 1 and tree.n_cycles > 4000
        assert len(beats) >= math.ceil(tree.n_cycles / batch_module.MAX_STEPS)

    def test_token_set_mid_path_aborts(self, cpu):
        event = _SetAfter(3)
        with pytest.raises(JobCancelled):
            explore(cpu, LONG_LOOP, cancel=CancelToken(event))
        assert event.checks == 4

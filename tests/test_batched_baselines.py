"""Batched baselines ≡ scalar baselines.

The input-profiling and GA-stressmark baselines run their concrete
simulations in lock-step on a :class:`~repro.sim.batch.BatchMachine`,
one lane per input set or genome; because the batched engine is
record-for-record identical to the scalar
:class:`~repro.sim.machine.Machine` (``profile_one`` and
``cpu.run_to_halt`` keep running on it), every measurement — and hence
the GA evolution — must be exactly the same as the per-run oracle.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.bench.suite import get_benchmark
from repro.cells import SG65
from repro.core import stressmark
from repro.core.baselines import input_profiling, profile_one
from repro.core.stressmark import generate_stressmark
from repro.power.model import PowerModel
from repro.sim import batch as batch_module
from repro.sim.batch import run_batch_to_halt
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def concrete_machines(cpu, program, input_sets):
    return [
        cpu.make_machine(
            program.with_inputs(inputs), symbolic_inputs=False, port_in=0
        )
        for inputs in input_sets
    ]


def scalar_runs(cpu, machines, max_cycles=50_000):
    runs = []
    for machine in machines:
        trace = Trace(machine.netlist.n_nets)
        cycles = cpu.run_to_halt(machine, max_cycles=max_cycles, trace=trace)
        runs.append((trace, cycles))
    return runs


def genome_oracle(cpu, model, genome):
    """(peak, average) of one genome on a scalar ``Machine``."""
    program = assemble(stressmark._genome_source(genome), "stressmark")
    machine = cpu.make_machine(program, symbolic_inputs=False, port_in=0)
    trace = Trace(machine.netlist.n_nets)
    cpu.run_to_halt(machine, max_cycles=5_000, trace=trace)
    power = model.trace_power(
        trace.values_matrix(packed=True), trace.mem_accesses(),
        bit_order=trace.bit_order,
    )
    return power.peak(), power.average()


class TestRunBatchToHalt:
    def test_matches_scalar_run_to_halt(self, cpu):
        benchmark = get_benchmark("FFT")
        program = benchmark.program()
        input_sets = benchmark.input_sets(3)
        scalar = scalar_runs(
            cpu, concrete_machines(cpu, program, input_sets)
        )
        batched = run_batch_to_halt(
            cpu, concrete_machines(cpu, program, input_sets)
        )
        for (s_trace, s_cycles), (b_trace, b_cycles) in zip(scalar, batched):
            assert s_cycles == b_cycles
            assert len(s_trace) == len(b_trace)
            assert np.array_equal(
                s_trace.values_matrix(), b_trace.values_matrix()
            )
            assert np.array_equal(
                s_trace.mem_accesses(), b_trace.mem_accesses()
            )

    def test_across_lane_groups(self, cpu):
        """66 concrete runs of mixed length are two 64-lane kernel
        groups in one batch; every lane still matches its scalar run."""
        benchmark = get_benchmark("tHold")
        program = benchmark.program()
        input_sets = benchmark.input_sets(66, seed=1)
        scalar = scalar_runs(
            cpu, concrete_machines(cpu, program, input_sets)
        )
        assert len({cycles for _trace, cycles in scalar}) > 1
        batched = run_batch_to_halt(
            cpu, concrete_machines(cpu, program, input_sets)
        )
        assert len(batched) == len(scalar)
        for (s_trace, s_cycles), (b_trace, b_cycles) in zip(scalar, batched):
            assert s_cycles == b_cycles
            assert np.array_equal(
                s_trace.values_matrix(packed=True),
                b_trace.values_matrix(packed=True),
            )
            assert np.array_equal(
                s_trace.active_matrix(packed=True),
                b_trace.active_matrix(packed=True),
            )
            assert np.array_equal(
                s_trace.mem_accesses(), b_trace.mem_accesses()
            )

    def test_empty_input(self, cpu):
        assert run_batch_to_halt(cpu, []) == []


class TestBatchedProfiling:
    def test_identical_measurements(self, cpu, model):
        """One-lane and four-lane batches both reproduce the concrete
        ``Machine`` run of every input set."""
        benchmark = get_benchmark("FFT")
        program = benchmark.program()
        sets = benchmark.input_sets(4)
        scalar = [profile_one(cpu, program, inputs, model) for inputs in sets]
        for count in (1, 4):
            batched = input_profiling(cpu, program, sets[:count], model)
            assert batched.runs == scalar[:count], count


class TestBatchedStressmark:
    def test_identical_evolution(self, cpu, model, monkeypatch):
        """The lock-step GA breeds what a GA scoring each genome on its
        own scalar ``Machine`` breeds, for one island and for a batch
        that spans three."""
        runs = [
            dict(population=4, generations=1, genome_length=5, seed=7),
            dict(population=4, generations=2, genome_length=5, seed=7,
                 islands=3, migration_interval=1),
        ]
        batched = [generate_stressmark(cpu, model, **kw) for kw in runs]
        monkeypatch.setattr(
            stressmark, "_evaluate_population",
            lambda cpu, model, pool: [
                genome_oracle(cpu, model, genome) for genome in pool
            ],
        )
        for kwargs, lock_step in zip(runs, batched):
            scalar = generate_stressmark(cpu, model, **kwargs)
            assert scalar.source == lock_step.source
            assert scalar.peak_power_mw == lock_step.peak_power_mw
            assert scalar.avg_power_mw == lock_step.avg_power_mw

    def test_scores_match_oracle(self, cpu, model):
        rng = np.random.default_rng(11)
        pool = [
            [stressmark._random_gene(rng) for _ in range(4)]
            for _ in range(3)
        ]
        scores = stressmark._evaluate_population(cpu, model, pool)
        assert scores == [genome_oracle(cpu, model, g) for g in pool]

    def test_batch_failure_recovery(self, cpu, model, monkeypatch):
        """A genome that never halts fails the lock-step batch; the
        per-genome rerun scores it zero and every other genome exactly."""
        rng = np.random.default_rng(5)
        pool = [
            [stressmark._random_gene(rng) for _ in range(4)]
            for _ in range(3)
        ]
        expected = [genome_oracle(cpu, model, g) for g in pool]
        spinning = pool[1]
        source = stressmark._genome_source

        def genome_source(genome):
            if genome is spinning:
                return (stressmark.HEADER
                        + "body:\nspin:   inc r4\n        jmp spin\n"
                        + stressmark.FOOTER)
            return source(genome)

        widths = []

        def spy(cpu, machines, **kwargs):
            widths.append(len(machines))
            return run_batch_to_halt(cpu, machines, **kwargs)

        monkeypatch.setattr(stressmark, "_genome_source", genome_source)
        monkeypatch.setattr(batch_module, "run_batch_to_halt", spy)
        scores = stressmark._evaluate_population(cpu, model, pool)
        assert widths == [3, 1, 1, 1]
        assert scores[1] == (0.0, 0.0)
        assert scores[0] == expected[0]
        assert scores[2] == expected[2]


SPIN_WITH_INPUT = """
        .org 0xF000
loop:   inc r4
        jmp loop
        .org 0x0240
inp:    .input 1
"""


class TestHaltBudget:
    """A concrete run over its cycle budget is a HaltBudgetError (still
    a RuntimeError) from the scalar and the lock-step helper alike."""

    @pytest.mark.parametrize("engine", ["native", "reference"])
    def test_both_helpers_raise_the_named_error(self, cpu, engine):
        from repro.cpu import HaltBudgetError

        program = assemble(SPIN_WITH_INPUT, "spin").with_inputs([1])

        def machine():
            return cpu.make_machine(
                program, symbolic_inputs=False, port_in=0, engine=engine
            )

        with pytest.raises(HaltBudgetError, match="no halt within 40 cycles"):
            cpu.run_to_halt(machine(), max_cycles=40)
        with pytest.raises(RuntimeError) as caught:
            run_batch_to_halt(cpu, [machine(), machine()], max_cycles=40)
        assert type(caught.value) is HaltBudgetError
        assert str(caught.value) == "no halt within 40 cycles"

"""Batched baselines ≡ scalar baselines.

The input-profiling and GA-stressmark baselines run their concrete
simulations in lock-step on a :class:`~repro.sim.batch.BatchMachine`;
because the batched engine is record-for-record identical to the scalar
:class:`~repro.sim.machine.Machine` (``profile_one`` and the stressmark's
per-genome path keep running on it), every measurement — and hence the
GA evolution — must be exactly the same under any batch size.
"""

import pytest

from repro.bench.suite import get_benchmark
from repro.cells import SG65
from repro.core.baselines import input_profiling, profile_one
from repro.core.stressmark import generate_stressmark
from repro.power.model import PowerModel
from repro.sim.batch import run_batch_to_halt
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


class TestRunBatchToHalt:
    def test_matches_scalar_run_to_halt(self, cpu):
        benchmark = get_benchmark("FFT")
        program = benchmark.program()
        input_sets = benchmark.input_sets(3)
        scalar = []
        for inputs in input_sets:
            machine = cpu.make_machine(
                program.with_inputs(inputs), symbolic_inputs=False, port_in=0
            )
            trace = Trace(machine.netlist.n_nets)
            cycles = cpu.run_to_halt(machine, max_cycles=50_000, trace=trace)
            scalar.append((trace, cycles))
        machines = [
            cpu.make_machine(
                program.with_inputs(inputs), symbolic_inputs=False, port_in=0
            )
            for inputs in input_sets
        ]
        batched = run_batch_to_halt(cpu, machines, batch_size=2)
        for (s_trace, s_cycles), (b_trace, b_cycles) in zip(scalar, batched):
            assert s_cycles == b_cycles
            assert len(s_trace) == len(b_trace)
            import numpy as np

            assert np.array_equal(
                s_trace.values_matrix(), b_trace.values_matrix()
            )
            assert np.array_equal(
                s_trace.mem_accesses(), b_trace.mem_accesses()
            )

    def test_empty_input(self, cpu):
        assert run_batch_to_halt(cpu, [], batch_size=4) == []


class TestBatchedProfiling:
    def test_identical_measurements(self, cpu, model):
        """Lock-step and one-lane batches both reproduce the concrete
        ``Machine`` run of every input set."""
        benchmark = get_benchmark("FFT")
        program = benchmark.program()
        sets = benchmark.input_sets(4)
        scalar = [profile_one(cpu, program, inputs, model) for inputs in sets]
        for batch_size in (1, 4):
            batched = input_profiling(
                cpu, program, sets, model, batch_size=batch_size
            )
            assert batched.runs == scalar, batch_size


class TestBatchedStressmark:
    def test_identical_evolution(self, cpu, model):
        kwargs = dict(population=4, generations=1, genome_length=5, seed=7)
        scalar = generate_stressmark(cpu, model, batch_size=1, **kwargs)
        batched = generate_stressmark(cpu, model, batch_size=4, **kwargs)
        assert scalar.source == batched.source
        assert scalar.peak_power_mw == batched.peak_power_mw
        assert scalar.avg_power_mw == batched.avg_power_mw

"""Parallelism and replay invariants of the single-process engine.

Pins what remains of the multi-core layer, and the replay it used to
lean on:

* the batched explorer's canonical replay merge is order-independent
  (whatever order the lock-step lanes finish segments in, the assembled
  tree is the same),
* the island-model GA breeds exactly the stressmarks recorded in
  ``tests/golden_stressmarks.json``, scores each genome once, and
  scores at most 64 genomes in one lock-step batch,
* concrete packed batches (``run_batch_to_halt``) skip per-cycle
  unpacking yet stay record-for-record identical.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.suite import get_benchmark
from repro.cells import SG65
from repro.core.activity import _ROOT_KEY, _assemble_tree, _Node, explore
from repro.core.stressmark import generate_stressmark
from repro.power.model import PowerModel
from repro.sim.batch import BatchMachine
from repro.sim.trace import Trace

GOLDEN_STRESSMARKS = Path(__file__).with_name("golden_stressmarks.json")


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def _explore(cpu, name, **kwargs):
    benchmark = get_benchmark(name)
    return explore(
        cpu,
        benchmark.program(),
        max_cycles=benchmark.max_cycles,
        max_segments=benchmark.max_segments,
        **kwargs,
    )


class TestMergeOrderProperty:
    """The batched engine's canonical replay is independent of the order
    in which its lanes complete segments."""

    def _nodes_from_tree(self, tree):
        """Reconstruct the {key: node} graph the batched engine replays."""
        keys = {
            segment.index: segment.index.to_bytes(4, "little")
            for segment in tree.segments
        }
        keys[0] = _ROOT_KEY
        nodes = {}
        for segment in tree.segments:
            sl = tree.segment_slice(segment)
            nodes[keys[segment.index]] = _Node(
                key=keys[segment.index],
                rows=np.arange(sl.start, sl.stop),
                end=segment.end,
                forks=[
                    (fork.assignment, keys[fork.target])
                    for fork in segment.forks
                ],
            )
        return nodes

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_merge_is_identical(self, cpu, seed):
        tree = _explore(cpu, "binSearch")
        nodes = self._nodes_from_tree(tree)
        rng = np.random.default_rng(seed)
        items = list(nodes.items())
        rng.shuffle(items)
        reassembled = _assemble_tree(
            dict(items), tree.flat_trace, cpu.annotate
        )
        assert reassembled.digest() == tree.digest()


class TestFlatTraceFromArena:
    """The explorer's batch appends every lane-step to one arena; the
    tree gathers its segments' rows once into the flat trace."""

    def test_popped_dispatch_rows_never_reach_the_flat_trace(
        self, cpu, monkeypatch
    ):
        batches = []
        init = BatchMachine.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            batches.append(self)

        monkeypatch.setattr(BatchMachine, "__init__", spy)
        tree = _explore(cpu, "binSearch")
        [batch] = batches
        # one dispatch row per forking lane is popped: its children re-run it
        n_forks = sum(segment.end == "fork" for segment in tree.segments)
        assert n_forks > 1
        assert len(batch.arena) == tree.n_cycles + n_forks
        cycles = tree.flat_trace.cycles()
        for segment in tree.segments:
            own = cycles[tree.segment_slice(segment)]
            assert np.array_equal(own, own[0] + np.arange(len(own)))
            parent = segment.parent and tree.segments[segment.parent[0]]
            if parent and parent.n_cycles and len(own):
                last = parent.flat_start + parent.n_cycles - 1
                assert own[0] == cycles[last] + 1

    def test_packed_matrices_are_views_of_the_flat_block(self, cpu):
        flat = _explore(cpu, "binSearch").flat_trace
        values = flat.values_matrix(packed=True)
        active = flat.active_matrix(packed=True)
        # no read restacks: each is a view of the one block
        assert values.base is not None and values.base is active.base
        assert np.shares_memory(values, flat.values_matrix(packed=True))
        assert np.shares_memory(active, flat.active_matrix(packed=True))
        assert np.shares_memory(flat.mem_accesses(), flat.mem_accesses())


class TestIslandGADeterminism:
    def test_matches_recorded_stressmarks(self, cpu, model):
        """Islands 1-4 x migration intervals 1-3 x both objectives breed
        bit-identical winners to the recorded ones."""
        golden = json.loads(GOLDEN_STRESSMARKS.read_text())
        mismatches = []
        for config, expected in golden["stressmarks"].items():
            objective, islands, interval = config.split("/")
            mark = generate_stressmark(
                cpu, model, objective, islands=int(islands),
                migration_interval=int(interval), **golden["kwargs"],
            )
            digest = hashlib.sha256(mark.source.encode()).hexdigest()
            got = [digest, mark.peak_power_mw, mark.avg_power_mw]
            if got != expected:
                mismatches.append((config, got, expected))
        assert len(golden["stressmarks"]) == 24
        assert not mismatches

    def test_single_island_is_classic_ga(self, cpu, model):
        classic = generate_stressmark(
            cpu, model, population=6, generations=2, genome_length=6
        )
        single = generate_stressmark(
            cpu, model, population=6, generations=2, genome_length=6,
            islands=1,
        )
        assert classic.source == single.source
        assert classic.peak_power_mw == single.peak_power_mw

    def test_each_genome_is_scored_once(self, cpu, model, monkeypatch):
        """Survivors, migrants and duplicate children keep their score:
        no genome source reaches the simulator twice."""
        from repro.core import stressmark

        evaluate = stressmark._evaluate_population
        scored = []

        def spy(cpu, model, pool):
            scored.extend(stressmark._genome_source(g) for g in pool)
            return evaluate(cpu, model, pool)

        monkeypatch.setattr(stressmark, "_evaluate_population", spy)
        generate_stressmark(
            cpu, model, population=4, generations=3, genome_length=5,
            islands=2, migration_interval=1,
        )
        assert len(scored) == len(set(scored))
        assert len(scored) < 2 * 4 * 3  # survivors were not rescored

    def test_lock_step_batches_hold_at_most_64_genomes(
        self, cpu, model, monkeypatch
    ):
        """16 islands x 10 genomes score as batches of 64, 64 and 32."""
        from repro.sim import batch as batch_module

        widths = []
        run_batch_to_halt = batch_module.run_batch_to_halt

        def spy(cpu, machines, **kwargs):
            widths.append(len(machines))
            return run_batch_to_halt(cpu, machines, **kwargs)

        monkeypatch.setattr(batch_module, "run_batch_to_halt", spy)
        generate_stressmark(
            cpu, model, population=10, generations=1, genome_length=4,
            islands=16,
        )
        assert widths == [64, 64, 32]


class TestPackedConcreteRecords:
    """run_batch_to_halt emits packed records and stays bit-identical."""

    def test_records_are_packed_and_lazy(self, cpu):
        from repro.sim.batch import run_batch_to_halt

        benchmark = get_benchmark("mult")
        program = benchmark.program().with_inputs(benchmark.input_sets(1)[0])
        machine = cpu.make_machine(program, symbolic_inputs=False, port_in=0)
        [(trace, cycles)] = run_batch_to_halt(cpu, [machine])
        assert cycles > 0
        assert trace.bit_order is machine.bit_order
        # a lane's trace indexes the batch's arena; a row read in place
        # agrees with the bulk matrix unpack
        matrix = trace.values_matrix()
        assert np.array_equal(trace[0].values, matrix[0])
        assert np.array_equal(trace[-1].values, matrix[-1])
        assert trace[-1].cycle == trace.cycles()[-1] == cycles - 1

    @pytest.mark.parametrize("engine", ["native", "reference"])
    def test_arena_traces_match_scalar_machines(self, cpu, engine):
        """Lanes of different lengths share one arena; each lane's trace
        equals a scalar Machine's stepped trace row for row."""
        from repro.sim.batch import run_batch_to_halt

        benchmark = get_benchmark("binSearch")
        programs = [
            benchmark.program().with_inputs(inputs)
            for inputs in benchmark.input_sets(3)
        ]

        def machine(program):
            return cpu.make_machine(
                program, symbolic_inputs=False, port_in=0, engine=engine
            )

        results = run_batch_to_halt(cpu, [machine(p) for p in programs])
        assert len({cycles for _trace, cycles in results}) > 1
        for program, (trace, cycles) in zip(programs, results):
            scalar = Trace(cpu.netlist.n_nets)
            assert cpu.run_to_halt(machine(program), trace=scalar) == cycles
            assert trace.bit_order is scalar.bit_order
            assert len(trace) == len(scalar) > 0
            assert np.array_equal(trace.cycles(), scalar.cycles())
            assert np.array_equal(trace.mem_accesses(), scalar.mem_accesses())
            assert np.array_equal(
                trace.values_matrix(packed=True),
                scalar.values_matrix(packed=True),
            )
            assert np.array_equal(
                trace.active_matrix(packed=True),
                scalar.active_matrix(packed=True),
            )
            # pads are never active: rows are recorded without a mask
            pads = ~scalar.bit_order.valid_mask
            assert not (scalar.active_matrix(packed=True) & pads).any()

    def test_packed_matches_scalar_run(self, cpu):
        from repro.sim.batch import run_batch_to_halt

        benchmark = get_benchmark("tea8")
        program = benchmark.program().with_inputs(benchmark.input_sets(1)[0])
        scalar_machine = cpu.make_machine(
            program, symbolic_inputs=False, port_in=0
        )
        scalar_trace = Trace(scalar_machine.netlist.n_nets)
        cpu.run_to_halt(scalar_machine, trace=scalar_trace)
        machine = cpu.make_machine(program, symbolic_inputs=False, port_in=0)
        [(trace, _cycles)] = run_batch_to_halt(cpu, [machine])
        assert np.array_equal(
            trace.values_matrix(), scalar_trace.values_matrix()
        )
        assert np.array_equal(
            trace.active_matrix(), scalar_trace.active_matrix()
        )
        assert np.array_equal(
            trace.mem_accesses(), scalar_trace.mem_accesses()
        )
        assert cpu.annotate(trace) == cpu.annotate(scalar_trace)


class TestIslandKnobResolution:
    """`--islands`/`--migration-interval` are arguments only: an explicit
    value, else the classic defaults.  ``REPRO_ISLANDS`` and
    ``REPRO_MIGRATION_INTERVAL`` no longer exist, so setting them
    changes nothing — not the GA, not a service job's signed params."""

    @pytest.fixture()
    def stale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ISLANDS", "5")
        monkeypatch.setenv("REPRO_MIGRATION_INTERVAL", "7")

    def test_defaults(self, stale_env):
        from repro.core.stressmark import resolve_island_knobs

        assert resolve_island_knobs() == (1, 2)
        assert resolve_island_knobs(4, 3) == (4, 3)
        assert resolve_island_knobs(2) == (2, 2)

    def test_env_resolution_and_validation(self, stale_env):
        """A service job's signed params ignore the environment too, and
        a knob below 1 is refused."""
        from repro.core.stressmark import resolve_island_knobs
        from repro.service.scheduler import normalize_params

        params = normalize_params("stressmark", {})
        assert (params["islands"], params["migration_interval"]) == (1, 2)
        with pytest.raises(ValueError, match="islands must be >= 1"):
            resolve_island_knobs(0)
        with pytest.raises(ValueError, match="migration_interval"):
            resolve_island_knobs(1, 0)

    def test_environment_leaves_the_evolution_alone(
        self, cpu, model, monkeypatch
    ):
        kwargs = dict(population=4, generations=2, genome_length=6)
        classic = generate_stressmark(cpu, model, **kwargs)
        monkeypatch.setenv("REPRO_ISLANDS", "2")
        monkeypatch.setenv("REPRO_MIGRATION_INTERVAL", "1")
        via_env = generate_stressmark(cpu, model, **kwargs)
        assert via_env.source == classic.source
        assert via_env.peak_power_mw == classic.peak_power_mw

    def test_runner_stressmark_keys_island_schedules(self, tmp_path,
                                                     monkeypatch):
        """Different island schedules cache under different keys (they
        evolve different winners)."""
        from repro.bench import runner

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(runner, "_store", None)
        seen = []

        def fake_cached(key, compute):
            seen.append(key)
            return "marker"

        monkeypatch.setattr(runner, "_cached", fake_cached)
        runner.stressmark("peak")
        runner.stressmark("peak", islands=3, migration_interval=2)
        # one island never migrates: any interval is the classic artifact
        runner.stressmark("peak", islands=1, migration_interval=4)
        assert seen[0] == "stressmark_peak"
        assert seen[1] == "stressmark_peak_i3m2"
        assert seen[2] == seen[0]
        runner._store = None

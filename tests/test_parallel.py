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
                records=tree.flat_trace.records[sl],
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
            dict(items),
            tree.flat_trace.n_nets,
            packing=tree.flat_trace.packing,
        )
        assert reassembled.digest() == tree.digest()


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
        assert trace.packing is not None
        record = trace.records[0]
        assert record.value_words is not None
        assert record._values is None, "values must unpack lazily"
        # per-record lazy unpack agrees with the bulk matrix unpack
        matrix = trace.values_matrix()
        assert np.array_equal(record.values, matrix[0])
        assert np.array_equal(
            trace.records[-1].values, matrix[-1]
        )

    def test_packed_matches_scalar_run(self, cpu):
        from repro.sim.batch import run_batch_to_halt
        from repro.sim.trace import Trace

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
        assert trace.annotation("pc") == scalar_trace.annotation("pc")


class TestIslandKnobResolution:
    """`--islands`/`--migration-interval` resolve like every other knob:
    explicit arg > env var > classic defaults — and the env path evolves
    the exact same stressmark as the explicit path."""

    def test_defaults(self, monkeypatch):
        from repro.core.stressmark import resolve_island_knobs

        monkeypatch.delenv("REPRO_ISLANDS", raising=False)
        monkeypatch.delenv("REPRO_MIGRATION_INTERVAL", raising=False)
        assert resolve_island_knobs() == (1, 2)
        assert resolve_island_knobs(4, 3) == (4, 3)

    def test_env_resolution_and_validation(self, monkeypatch):
        from repro.core.stressmark import resolve_island_knobs

        monkeypatch.setenv("REPRO_ISLANDS", "5")
        monkeypatch.setenv("REPRO_MIGRATION_INTERVAL", "7")
        assert resolve_island_knobs() == (5, 7)
        assert resolve_island_knobs(2) == (2, 7)  # explicit wins
        monkeypatch.setenv("REPRO_ISLANDS", "many")
        with pytest.raises(ValueError, match="REPRO_ISLANDS"):
            resolve_island_knobs()
        monkeypatch.setenv("REPRO_ISLANDS", "0")
        with pytest.raises(ValueError, match="islands"):
            resolve_island_knobs()
        with pytest.raises(ValueError, match="migration_interval"):
            resolve_island_knobs(1, 0)

    def test_env_matches_explicit_evolution(self, cpu, model, monkeypatch):
        kwargs = dict(population=4, generations=2, genome_length=6)
        explicit = generate_stressmark(
            cpu, model, islands=2, migration_interval=1, **kwargs
        )
        monkeypatch.setenv("REPRO_ISLANDS", "2")
        monkeypatch.setenv("REPRO_MIGRATION_INTERVAL", "1")
        via_env = generate_stressmark(cpu, model, **kwargs)
        assert via_env.source == explicit.source
        assert via_env.peak_power_mw == explicit.peak_power_mw

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

"""Perf-trajectory harness: per-phase, per-engine wall-clock.

``python -m repro.bench`` (or ``python -m repro bench``) times every phase
of the analyze pipeline — Algorithm 1 exploration, Algorithm 2 peak power,
§3.3 peak energy, and the input-profiling baseline — on the same
benchmarks, always cold (no disk cache involved), and writes a
``BENCH_suite.json`` artifact (schema 5) with per-phase wall-clock so
future PRs can attribute speedups and catch regressions of each hot path
separately.  The GA stressmark baseline is program-independent and timed
once per report.

The explore phase is timed under both simulation engines: the batched
uint8 reference (the oracle) and the compiled native kernels (the
default; skipped with their keys absent when no C compiler is
available) — ``native_speedup`` is the native gain over the reference at
equal results: both trees must have the same
:meth:`~repro.core.activity.ExecutionTree.digest`, so a bench run doubles
as a coarse differential test.  The kernel's one-time compile cost is
reported as ``engine.native_build_s`` (0.0 when the shared object was
already cached or loaded).  Every other phase runs once, on the default
engine's tree.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.bench.suite import ALL_BENCHMARKS, get_benchmark
from repro.cells import SG65
from repro.core.activity import default_batch_size, explore
from repro.core.baselines import input_profiling
from repro.core.peakenergy import compute_peak_energy
from repro.core.peakpower import compute_peak_power
from repro.core.stressmark import generate_stressmark
from repro.cpu import build_ulp430
from repro.power.model import PowerModel

#: ``None`` benchmark selection = the whole Table 4.1 suite.
DEFAULT_PERF_BENCHMARKS = sorted(ALL_BENCHMARKS)

#: input sets timed per benchmark in the baselines phase (the suite's
#: profiling default).
N_PROFILING_INPUTS = 8

#: reduced GA configuration for the stressmark timing entry — large
#: enough to exercise the batched population evaluation, small enough to
#: keep the bench run bounded.
STRESSMARK_KWARGS = dict(population=6, generations=2, genome_length=8)


def _best(fn, repeats: int):
    """(best wall-clock, last result) of *repeats* calls."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_perf_suite(
    names: list[str] | None = None,
    repeats: int = 1,
    cpu=None,
    islands: int | None = None,
    migration_interval: int | None = None,
) -> dict:
    """Time every pipeline phase under the default engine; return the report.

    Explore runs at each engine's lock-step width, which the artifact's
    engine block records (``batch_size`` for the reference engine,
    ``native_batch_size``); the baselines run one lane per input set or
    genome.  *islands*/*migration_interval* select the GA island
    schedule for the stressmark phase (``None`` honors
    ``REPRO_ISLANDS``/``REPRO_MIGRATION_INTERVAL``), and the resolved
    knobs land in the artifact's engine block.
    """
    from repro.core.stressmark import resolve_island_knobs

    names = names if names is not None else list(DEFAULT_PERF_BENCHMARKS)
    islands, migration_interval = resolve_island_knobs(
        islands, migration_interval
    )
    ga_kwargs = dict(
        STRESSMARK_KWARGS, islands=islands,
        migration_interval=migration_interval,
    )
    cpu = cpu or build_ulp430()
    model = PowerModel(cpu.netlist, SG65, clock_ns=10.0)
    # Build (or cache-load) the native kernel once up front so the timed
    # explore runs measure settles, not the C compile.  A compiler-less
    # host falls back to the reference evaluator (with the one-time
    # warning) — detected here so the artifact omits the native keys
    # instead of re-labeling reference timings.
    native_evaluator = cpu.evaluator_for("native")
    native_available = (
        getattr(native_evaluator, "engine_name", None) == "native"
    )
    native_build_s = (
        round(native_evaluator.kernel.build_s, 3) if native_available
        else None
    )
    rows = []
    for name in names:
        benchmark = get_benchmark(name)
        program = benchmark.program()

        def run_explore(engine: str):
            return explore(
                cpu,
                program,
                max_cycles=benchmark.max_cycles,
                max_segments=benchmark.max_segments,
                engine=engine,
            )

        explore_batched_s, tree = _best(
            lambda: run_explore("reference"), repeats
        )
        reference_digest = tree.digest()
        explore_native_s = None
        if native_available:
            # Drop each tree before the next timed run: the real pipeline
            # has one tree alive, and ~40 MB of stale record arrays
            # measurably slows the streaming phases on small-cache hosts.
            del tree
            explore_native_s, tree = _best(
                lambda: run_explore("native"), repeats
            )
            if tree.digest() != reference_digest:
                raise AssertionError(
                    f"{name}: native and reference trees disagree"
                )
        activity_stats = model.activity_profile(tree.flat_trace)

        power_s, power = _best(
            lambda: compute_peak_power(tree, model), repeats
        )
        energy_s, _energy = _best(
            lambda: compute_peak_energy(
                tree, power, loop_bound=benchmark.loop_bound
            ),
            repeats,
        )
        input_sets = benchmark.input_sets(N_PROFILING_INPUTS)
        profiling_s, _profile = _best(
            lambda: input_profiling(cpu, program, input_sets, model),
            repeats,
        )

        explore_row = {
            "batched_s": round(explore_batched_s, 3),
            "batched_cycles_per_s": round(
                tree.n_cycles / explore_batched_s, 1
            ),
        }
        if explore_native_s is not None:
            explore_row["native_s"] = round(explore_native_s, 3)
            # gain of the compiled kernels over the batched reference at
            # identical results
            explore_row["native_speedup"] = round(
                explore_batched_s / explore_native_s, 2
            ) if explore_native_s else 0.0
            explore_row["native_cycles_per_s"] = round(
                tree.n_cycles / explore_native_s, 1
            )
        rows.append(
            {
                "name": name,
                "n_segments": len(tree.segments),
                "n_cycles": tree.n_cycles,
                "explore": explore_row,
                "activity": activity_stats,
                "peakpower": {"stacked_s": round(power_s, 3)},
                "peakenergy": {"s": round(energy_s, 3)},
                "baselines": {"batched_s": round(profiling_s, 3)},
            }
        )
        del tree, power

    stressmark_s, _stressmark = _best(
        lambda: generate_stressmark(cpu, model, **ga_kwargs),
        repeats,
    )
    from repro.sim.bitplane import default_engine

    engine_block = {
        # the explore widths of the reference and the native engine
        "batch_size": default_batch_size("reference"),
        # the engine the non-explore phases actually ran under (the
        # explore phase always times every engine)
        "sim_engine": default_engine(),
        "native_batch_size": default_batch_size("native"),
        "repeats": repeats,
        "islands": islands,
        "migration_interval": migration_interval,
    }
    if native_build_s is not None:
        # one-time C compile of the settle kernel (0.0 = already cached
        # or loaded in this process); absent = no C compiler
        engine_block["native_build_s"] = native_build_s
    return {
        "schema": 5,
        "engine": engine_block,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "generated": time.strftime("%Y-%m-%d"),
        "benchmarks": rows,
        "stressmark": {"batched_s": round(stressmark_s, 3)},
    }


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")

"""Shared experiment runner: artifact-store client + parallel suite fan-out.

Every figure/table harness needs the same expensive artifacts — the
symbolic analysis of each benchmark, profiling runs, the GA stressmark.
This module computes them once and publishes them through the
content-addressed :class:`repro.service.store.ArtifactStore` under
``.repro_cache`` in the working directory, so the per-figure benchmarks
stay fast and consistent with each other (and with the analysis
service, which resolves its jobs through the same store).

Cache entries are **versioned**: every on-disk file name carries a
fingerprint of the cache schema version, the elaborated netlist, and the
power model characterization (plus, for per-benchmark entries, the
benchmark source and exploration budgets).  Editing the processor, the
:class:`~repro.power.model.PowerModel`, or a benchmark therefore misses
the cache and recomputes instead of silently reusing stale pickles.
Setting ``REPRO_NO_CACHE=1`` (or passing ``--no-cache`` on the CLI)
bypasses the disk layer entirely.  ``repro cache stats`` / ``repro
cache gc`` inspect and trim the store (including seed-era legacy
entries).

:func:`run_suite` fans the Table 4.1 benchmarks out over a
``ProcessPoolExecutor`` — each worker process elaborates its own CPU and
power model and fills the shared artifact store, so a cold suite run
scales with the core count.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.service.store import ArtifactStore

from repro.bench.suite import ALL_BENCHMARKS, Benchmark, get_benchmark
from repro.cells import SG65
from repro.core.api import AnalysisReport, analyze
from repro.core.baselines import (
    DesignToolBaseline,
    ProfilingBaseline,
    design_tool,
    input_profiling,
)
from repro.core.stressmark import Stressmark, generate_stressmark
from repro.cpu import Ulp430, build_ulp430
from repro.power.model import PowerModel

CACHE_DIR = Path(".repro_cache")

#: Bump when the shape of any cached value changes, or its numbers do
#: (3: exact integer-attojoule pricing moved result floats in the last
#: ulps).
CACHE_SCHEMA_VERSION = 3

_cpu: Ulp430 | None = None
_model: PowerModel | None = None
_memory_cache: dict[str, object] = {}
_fingerprint: str | None = None

#: profiling input sets per benchmark (the paper's "several input sets")
N_PROFILING_INPUTS = 8


def shared_cpu() -> Ulp430:
    global _cpu
    if _cpu is None:
        _cpu = build_ulp430()
    return _cpu


def shared_model() -> PowerModel:
    global _model
    if _model is None:
        _model = PowerModel(shared_cpu().netlist, SG65, clock_ns=10.0)
    return _model


def cache_enabled() -> bool:
    """Disk caching is on unless ``REPRO_NO_CACHE`` is set (to anything
    but ``0``/empty) — the escape hatch behind the CLI's ``--no-cache``."""
    return os.environ.get("REPRO_NO_CACHE", "0") in ("", "0")


def cache_fingerprint() -> str:
    """Version tag baked into every disk-cache key.

    Covers the cache schema version, the elaborated netlist (gate kinds,
    connectivity, reset values, module paths) and the power-model
    characterization (per-net energies, max-power transitions, leakage,
    clock period, memory energies).  Any change to the processor or the
    model changes the fingerprint, so stale pickles are never reused.
    """
    global _fingerprint
    if _fingerprint is None:
        cpu = shared_cpu()
        model = shared_model()
        library = model.library
        h = hashlib.blake2b(digest_size=8)
        h.update(f"schema{CACHE_SCHEMA_VERSION}".encode())
        for gate in cpu.netlist.gates:
            h.update(
                f"{gate.kind}:{gate.inputs}:{gate.reset_value}:{gate.module}"
                .encode()
            )
        for array in (model.e_rise, model.e_fall, model.max_prev, model.max_cur):
            h.update(array.tobytes())
        h.update(
            repr(
                (
                    model.clock_ns,
                    model.leakage_mw,
                    model.clock_pin_fj,
                    library.name,
                    library.mem_read_energy_fj,
                    library.mem_write_energy_fj,
                    library.mem_idle_fj,
                    N_PROFILING_INPUTS,
                )
            ).encode()
        )
        _fingerprint = h.hexdigest()
    return _fingerprint


def _bench_token(benchmark: Benchmark) -> str:
    """Per-benchmark fingerprint component: source + exploration budgets."""
    h = hashlib.blake2b(digest_size=4)
    h.update(benchmark.source.encode())
    h.update(
        repr(
            (benchmark.loop_bound, benchmark.max_segments, benchmark.max_cycles)
        ).encode()
    )
    return h.hexdigest()


_store: ArtifactStore | None = None


def artifact_store() -> ArtifactStore:
    """The runner's artifact store, bound to the active ``CACHE_DIR``.

    Re-binds when ``CACHE_DIR`` is repointed (tests, ``repro serve
    --store``); the fingerprint is late-bound through
    :func:`cache_fingerprint` so model edits version keys as before.
    """
    global _store
    if _store is None or _store.root != Path(CACHE_DIR):
        _store = ArtifactStore(CACHE_DIR, fingerprint=cache_fingerprint)
    return _store


def _cached(key: str, compute):
    """Two-level cache: per-process dict, then the versioned artifact
    store on disk (atomic publish, integrity-checked reads — parallel
    workers may race on the same key and torn artifacts must never
    become visible)."""
    if key in _memory_cache:
        artifact_store().note_memory_hit()
        return _memory_cache[key]
    if not cache_enabled():
        value = compute()
        _memory_cache[key] = value
        return value
    value = artifact_store().get_or_compute(key, compute)
    _memory_cache[key] = value
    return value


@dataclass
class BenchmarkResults:
    """X-based analysis results without the bulky execution tree."""

    name: str
    peak_power_mw: float
    npe_pj_per_cycle: float
    peak_energy_pj: float
    path_cycles: int
    n_segments: int
    trace_mw: object  # numpy array
    avg_peak_trace_mw: float


def x_based(name: str, cancel=None) -> BenchmarkResults:
    """Cached X-based (our-technique) results for one benchmark.

    All engines are bit-identical, so the engine is not part of the
    cache key and never fragments the store.  *cancel* aborts a cold
    compute at the next engine checkpoint (cache hits return immediately
    either way); cancellation never publishes an artifact.
    """

    def compute() -> BenchmarkResults:
        report = full_report(name, cancel=cancel)
        return BenchmarkResults(
            name=name,
            peak_power_mw=report.peak_power_mw,
            npe_pj_per_cycle=report.npe_pj_per_cycle,
            peak_energy_pj=report.peak_energy_pj,
            path_cycles=report.peak_energy.path_cycles,
            n_segments=len(report.tree.segments),
            trace_mw=report.peak_power.trace_mw,
            avg_peak_trace_mw=float(report.peak_power.trace_mw.mean()),
        )

    benchmark = get_benchmark(name)
    return _cached(f"xbased_{name}_{_bench_token(benchmark)}", compute)


def full_report(name: str, cancel=None) -> AnalysisReport:
    """Uncached full analysis (tree included) — for COI/validation flows.

    *cancel* threads into the analysis checkpoints.
    """
    key = f"report_{name}"
    if key in _memory_cache:
        return _memory_cache[key]
    benchmark = get_benchmark(name)
    report = analyze(
        shared_cpu(),
        benchmark.program(),
        shared_model(),
        cancel=cancel,
        **benchmark.analysis_kwargs(),
    )
    _memory_cache[key] = report
    return report


def profiling(name: str, cancel=None) -> ProfilingBaseline:
    """Cached guardbanded input-profiling baseline for one benchmark."""

    def compute() -> ProfilingBaseline:
        benchmark = get_benchmark(name)
        return input_profiling(
            shared_cpu(),
            benchmark.program(),
            benchmark.input_sets(N_PROFILING_INPUTS),
            shared_model(),
            cancel=cancel,
        )

    benchmark = get_benchmark(name)
    return _cached(f"profiling_{name}_{_bench_token(benchmark)}", compute)


def design_baseline() -> DesignToolBaseline:
    return design_tool(shared_model())


def stressmark(
    objective: str = "peak",
    islands: int | None = None,
    migration_interval: int | None = None,
    cancel=None,
) -> Stressmark:
    """Cached GA stressmark (shared by Figs 5.1/5.2).

    The island knobs resolve like the GA itself (explicit argument,
    else the classic single-population defaults) and feed the cache
    key, since
    different island schedules evolve different winners.
    """
    from repro.core.stressmark import resolve_island_knobs

    islands, migration_interval = resolve_island_knobs(
        islands, migration_interval
    )

    def compute() -> Stressmark:
        return generate_stressmark(
            shared_cpu(),
            shared_model(),
            objective,
            islands=islands,
            migration_interval=migration_interval,
            cancel=cancel,
        )

    key = f"stressmark_{objective}"
    # with one island no migration ever happens, so any interval breeds
    # the classic-GA artifact — don't fragment the store over it
    if islands != 1:
        key = f"{key}_i{islands}m{migration_interval}"
    return _cached(key, compute)


def all_names() -> list[str]:
    return list(ALL_BENCHMARKS)


# ----------------------------------------------------------------------
# Process-parallel suite runner
# ----------------------------------------------------------------------
def _suite_worker(name: str, no_cache: bool) -> BenchmarkResults:
    """Compute one benchmark's X-based results in a worker process.

    ``no_cache`` overrides the (fork- or spawn-) inherited environment;
    ``False`` falls through to whatever the caller exported.
    """
    if no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    return x_based(name)


def run_suite(
    names: list[str] | None = None,
    jobs: int | None = None,
    no_cache: bool = False,
) -> list[BenchmarkResults]:
    """X-based analysis of *names* (default: all 14), fanned out over
    ``jobs`` worker processes.

    ``jobs=None`` picks ``min(len(names), cpu_count)``; ``jobs=1`` runs
    sequentially in-process (the caller's environment is restored after).
    Each worker fills the shared disk cache, so repeated runs are warm
    regardless of the original fan-out.  Results come back in input
    order; duplicate names are computed once.  Each benchmark's analysis
    runs in one process: the benchmark fan-out is the only parallelism.
    """
    names = list(names) if names is not None else all_names()
    for name in names:
        get_benchmark(name)  # fail fast on typos before forking workers
    unique = list(dict.fromkeys(names))
    if jobs is None:
        jobs = max(1, min(len(unique), os.cpu_count() or 1))
    if jobs <= 1 or len(unique) <= 1:
        saved = os.environ.get("REPRO_NO_CACHE")
        try:
            by_name = {name: _suite_worker(name, no_cache) for name in unique}
        finally:
            if saved is None:
                os.environ.pop("REPRO_NO_CACHE", None)
            else:
                os.environ["REPRO_NO_CACHE"] = saved
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                name: pool.submit(_suite_worker, name, no_cache)
                for name in unique
            }
            by_name = {name: future.result() for name, future in futures.items()}
    return [by_name[name] for name in names]


@dataclass
class OptimizedResults:
    """Before/after data for the §5.1 optimization experiments."""

    name: str
    opts: list[str]
    base_peak_mw: float
    opt_peak_mw: float
    base_avg_trace_mw: float
    opt_avg_trace_mw: float
    base_cycles: int
    opt_cycles: int
    base_energy_pj: float
    opt_energy_pj: float
    opt_trace_mw: object  # numpy array

    @property
    def peak_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.opt_peak_mw / self.base_peak_mw)

    @property
    def dynamic_range_reduction_pct(self) -> float:
        base_dr = self.base_peak_mw - self.base_avg_trace_mw
        opt_dr = self.opt_peak_mw - self.opt_avg_trace_mw
        if base_dr <= 0:
            return 0.0
        return 100.0 * (1.0 - opt_dr / base_dr)

    @property
    def perf_degradation_pct(self) -> float:
        return 100.0 * (self.opt_cycles / self.base_cycles - 1.0)

    @property
    def energy_overhead_pct(self) -> float:
        return 100.0 * (self.opt_energy_pj / self.base_energy_pj - 1.0)


def optimized(name: str) -> OptimizedResults:
    """Cached §5.1 flow: COI analysis -> suggested OPTs -> re-analysis."""

    def compute() -> OptimizedResults:
        from repro.asm import assemble
        from repro.core import optimize as opt
        from repro.core.coi import cycles_of_interest

        benchmark = get_benchmark(name)
        base = full_report(name)
        base_result = x_based(name)
        program = benchmark.program()
        reports = cycles_of_interest(base.tree, base.peak_power, program, count=5)
        suggestions = opt.suggest(reports)
        applied: list[str] = []
        opt_report = base
        if suggestions:
            rewritten = opt.apply(benchmark.source, suggestions)
            if rewritten.applied:
                new_program = assemble(rewritten.source, f"{name}_opt")
                opt_report = analyze(
                    shared_cpu(),
                    new_program,
                    shared_model(),
                    loop_bound=benchmark.loop_bound,
                    max_segments=benchmark.max_segments * 2,
                    max_cycles=benchmark.max_cycles * 2,
                )
                applied = suggestions
        return OptimizedResults(
            name=name,
            opts=applied,
            base_peak_mw=base_result.peak_power_mw,
            opt_peak_mw=opt_report.peak_power_mw,
            base_avg_trace_mw=base_result.avg_peak_trace_mw,
            opt_avg_trace_mw=float(opt_report.peak_power.trace_mw.mean()),
            base_cycles=base_result.path_cycles,
            opt_cycles=opt_report.peak_energy.path_cycles,
            base_energy_pj=base_result.peak_energy_pj,
            opt_energy_pj=opt_report.peak_energy_pj,
            opt_trace_mw=opt_report.peak_power.trace_mw,
        )

    benchmark = get_benchmark(name)
    return _cached(f"optimized_{name}_{_bench_token(benchmark)}", compute)

"""Command-line interface.

Usage::

    python -m repro analyze  prog.asm [--loop-bound N] [--vcd-dir DIR]
    python -m repro profile  prog.asm --inputs 1,2,3 [--inputs 4,5,6 ...]
    python -m repro coi      prog.asm [--count N]
    python -m repro suite    [--benchmarks mult,tea8,...] [--jobs N]
                             [--no-cache]
    python -m repro bench    [--benchmarks ...] [--output BENCH_suite.json]
    python -m repro conformance [--benchmarks ...] [--fuzz N] [--seed S]
                             [--engine E]
    python -m repro serve    [--host H] [--port P] [--max-jobs N]
                             [--keyring FILE]
    python -m repro submit   BENCHMARK [--url URL] [--kind analyze|...]
    python -m repro upload   prog.asm [--url URL] [--api-key KEY]
    python -m repro keys     add|list|revoke [--keyring FILE] ...
    python -m repro cache    stats | gc --max-mb N

``analyze`` prints the guaranteed input-independent peak power and energy
for an assembly program whose ``.input`` regions are symbolic; ``profile``
measures concrete input sets and applies the 4/3 guardband; ``coi`` shows
the cycles of interest with culprit instructions; ``suite`` runs the
Table 4.1 benchmarks end to end (process-parallel, store-cached);
``bench`` times every pipeline phase (explore under both engines)
and writes a perf-trajectory JSON artifact; ``conformance`` co-executes
benchmarks and/or seeded fuzz programs lock-step on the behavioral ISS
and the gate-level engines, exits 1 with a written reproducer on any
architectural divergence (infra errors exit 2).

The service verbs turn sizing questions into repeatable queries:
``serve`` runs the HTTP analysis service (async job scheduler +
content-addressed artifact store, see :mod:`repro.service`); ``submit``
sends one job to a running server and prints the bound; ``upload``
posts arbitrary assembly source to a (possibly tenanted) server's
``POST /v1/programs`` gateway and waits for the bound; ``keys``
administers the API-key keyring file ``serve --keyring`` reads
(``add`` prints the plaintext key exactly once — only its hash is
stored); ``cache`` inspects (``stats``) or trims (``gc --max-mb N``)
the artifact store, including seed-era legacy pickles.

Engine knobs shared by the analysis commands: ``--engine native``
(default) simulates on packed dual-rail bit planes with fixed C kernels
compiled once per host and cached (one foreign call per batch step;
falls back to the reference engine with a warning when no C compiler is
available), ``--engine reference`` on the original uint8 evaluator, the
oracle — bit-identical results either way (also settable via
``REPRO_ENGINE``).  Execution paths and concrete runs advance in
lock-step at a width the engine and the input fix (32 explored paths on
the native engine, 8 on the reference engine; one lane per concrete
run; every GA island's genomes together, in batches of at most 64).
One analysis or stressmark runs in one process.  Cores are used across
analyses: ``suite --jobs N`` fans the benchmarks out over N processes,
and ``serve`` runs several jobs at once in its job slots (one per core,
or ``--max-jobs N``).
``suite --no-cache`` (or ``REPRO_NO_CACHE=1``) bypasses the versioned
disk cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.asm import AssemblyError, assemble
from repro.cells import SG65
from repro.core import PathExplosionError, analyze
from repro.core.baselines import GUARDBAND, input_profiling
from repro.core.coi import cycles_of_interest, dominant_modules
from repro.core.peakenergy import UnboundedEnergyError
from repro.cpu import HaltBudgetError, UnresolvedPCError, build_ulp430
from repro.power import PowerModel
from repro.sim.bitplane import ENGINES


class CliError(Exception):
    """A user-input error: printed to stderr, exit status 2, no traceback."""


def _resolve_benchmarks(spec: str | None) -> list[str] | None:
    """Validate a ``--benchmarks`` list against the registry.

    Returns ``None`` for "all benchmarks"; raises :class:`CliError`
    naming the offending entries and every valid name (instead of the
    raw ``KeyError`` traceback the suite used to die with).
    """
    from repro.bench.suite import ALL_BENCHMARKS

    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise CliError("--benchmarks selected nothing")
    unknown = [name for name in names if name not in ALL_BENCHMARKS]
    if unknown:
        listed = ", ".join(repr(name) for name in unknown)
        plural = "s" if len(unknown) > 1 else ""
        valid = ", ".join(sorted(ALL_BENCHMARKS))
        raise CliError(
            f"unknown benchmark{plural} {listed}; valid names: {valid}"
        )
    return names


def _load_program(path: str):
    """Read and assemble *path*; an unreadable file or a source that
    does not assemble is a :class:`CliError`."""
    try:
        source = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err.strerror or err}") from None
    try:
        return assemble(source, Path(path).stem)
    except AssemblyError as err:
        raise CliError(f"{path}: {err}") from None


#: analysis failures the program itself causes, and how to name them
_PROGRAM_ERRORS = {
    PathExplosionError: "exploration budget exceeded",
    UnresolvedPCError: "unresolved PC",
    HaltBudgetError: "concrete run over its cycle budget",
    UnboundedEnergyError: "unbounded peak energy",
}


@contextmanager
def _program_errors():
    """Turn a failure the analyzed program causes into a CliError."""
    try:
        yield
    except tuple(_PROGRAM_ERRORS) as err:
        raise CliError(f"{_PROGRAM_ERRORS[type(err)]}: {err}") from None


def _make_context():
    cpu = build_ulp430()
    model = PowerModel(cpu.netlist, SG65, clock_ns=10.0)
    return cpu, model


def _apply_engine(args: argparse.Namespace) -> None:
    """Export --engine so everything downstream honors it."""
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_analyze(args: argparse.Namespace) -> int:
    _apply_engine(args)
    program = _load_program(args.program)
    cpu, model = _make_context()
    with _program_errors():
        report = analyze(
            cpu, program, model,
            loop_bound=args.loop_bound, vcd_dir=args.vcd_dir,
            engine=args.engine,
        )
    if args.json:
        import json

        # machine-readable, bit-exact floats (repr round-trip) — the CI
        # gateway smoke compares this against an uploaded bound
        print(json.dumps(report.to_payload(), sort_keys=True))
        return 0
    print(report.summary())
    print(f"peak power : {report.peak_power_mw:.3f} mW (all inputs)")
    print(f"peak energy: {report.peak_energy_pj:.1f} pJ over "
          f"{report.peak_energy.path_cycles} cycles")
    print(f"NPE        : {report.npe_pj_per_cycle:.3f} pJ/cycle")
    return 0


def _input_sets(specs: list[str], program) -> list[list[int]]:
    """Parse ``--inputs`` specs: one integer per input word of *program*."""
    input_sets = []
    for spec in specs:
        try:
            values = [int(token, 0) for token in spec.split(",")]
        except ValueError:
            raise CliError(
                f"--inputs {spec!r}: expected comma-separated integers"
            ) from None
        if len(values) != program.n_input_words:
            raise CliError(
                f"--inputs {spec!r}: program {program.name} expects "
                f"{program.n_input_words} input words, got {len(values)}"
            )
        input_sets.append(values)
    return input_sets


def cmd_profile(args: argparse.Namespace) -> int:
    _apply_engine(args)
    program = _load_program(args.program)
    input_sets = _input_sets(args.inputs, program)
    cpu, model = _make_context()
    with _program_errors():
        profile = input_profiling(cpu, program, input_sets, model)
    for run in profile.runs:
        print(f"inputs={run.inputs}: peak {run.peak_power_mw:.3f} mW, "
              f"{run.energy_pj:.1f} pJ over {run.cycles} cycles")
    print(f"observed peak : {profile.observed_peak_power_mw:.3f} mW")
    print(f"guardbanded   : {profile.guardbanded_peak_power_mw:.3f} mW "
          f"(x{GUARDBAND:.2f})")
    return 0


def cmd_coi(args: argparse.Namespace) -> int:
    _apply_engine(args)
    program = _load_program(args.program)
    cpu, model = _make_context()
    with _program_errors():
        report = analyze(
            cpu, program, model,
            loop_bound=args.loop_bound, engine=args.engine,
        )
    reports = cycles_of_interest(
        report.tree, report.peak_power, program, count=args.count
    )
    for coi in reports:
        print(coi.describe())
    print(f"dominant modules: {dominant_modules(reports)[:4]}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.bench import runner

    _apply_engine(args)
    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    results = runner.run_suite(
        _resolve_benchmarks(args.benchmarks),  # None = all benchmarks
        jobs=args.jobs,
        no_cache=args.no_cache,
        engine=args.engine,
    )
    for result in results:
        print(f"{result.name:>10}: peak {result.peak_power_mw:.3f} mW, "
              f"NPE {result.npe_pj_per_cycle:.2f} pJ/cycle, "
              f"{result.n_segments} segments")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.perf import run_perf_suite, write_report

    _apply_engine(args)

    names = _resolve_benchmarks(args.benchmarks)
    report = run_perf_suite(
        names, repeats=args.repeats, islands=args.islands,
        migration_interval=args.migration_interval,
    )
    write_report(report, args.output)
    for row in report["benchmarks"]:
        ex = row["explore"]
        explored = f"batched ref {ex['batched_s']:.2f}s"
        if "native_s" in ex:
            explored = (f"native {ex['native_s']:.2f}s "
                        f"({ex['native_speedup']:.2f}x vs {explored})")
        print(f"{row['name']:>10}: "
              f"explore {explored}, "
              f"peakpower {row['peakpower']['stacked_s']:.2f}s, "
              f"peakenergy {row['peakenergy']['s']:.3f}s, "
              f"baselines {row['baselines']['batched_s']:.2f}s")
    print(f"stressmark: {report['stressmark']['batched_s']:.2f}s")
    print(f"wrote {args.output}")
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    from repro.verify import CoexecError, run_conformance

    names = _resolve_benchmarks(args.benchmarks)  # None = all benchmarks
    if args.fuzz < 0:
        raise CliError("--fuzz must be >= 0")
    engines = (args.engine,) if args.engine else None

    def emit(stage: str, detail: str) -> None:
        print(f"[{stage}] {detail}")

    try:
        report = run_conformance(
            benchmarks=names,
            fuzz_instructions=args.fuzz,
            seed=args.seed,
            engines=engines,
            program_size=args.program_size,
            emit=emit if not args.quiet else None,
        )
    except CoexecError as err:
        raise CliError(f"conformance infrastructure failure: {err}")
    clean = sum(1 for r in report.benchmarks if r.ok)
    if report.benchmarks:
        print(
            f"benchmarks: {clean}/{len(report.benchmarks)} "
            f"program-engine runs lock-step clean"
        )
    if report.fuzz_units:
        print(
            f"fuzz: {report.fuzz_units} instruction units over "
            f"{report.fuzz_programs} programs "
            f"(seed {report.fuzz_seed}, engines {report.engines})"
        )
    if report.ok:
        print("conformance OK: no architectural divergence")
        return 0
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for divergence in report.divergences:
        print()
        print(divergence.describe())
        stem = f"divergence_{divergence.program_name}_{divergence.engine}"
        if divergence.reproducer_asm is not None:
            path = out_dir / f"{stem}.asm"
            path.write_text(divergence.reproducer_asm)
        else:
            path = out_dir / f"{stem}.txt"
            path.write_text(divergence.describe() + "\n")
        print(f"reproducer written to {path}")
        if divergence.seed is not None:
            print(
                f"replay: repro conformance --fuzz {args.fuzz or 2000} "
                f"--seed {report.fuzz_seed} --engine {divergence.engine}"
            )
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench import runner
    from repro.service.server import serve

    _apply_engine(args)
    if args.store is not None:
        runner.CACHE_DIR = Path(args.store)
    return serve(
        host=args.host,
        port=args.port,
        max_jobs=args.max_jobs,
        verbose=args.verbose,
        backend=args.backend,
        recover=not args.no_recover,
        heartbeat_timeout=args.heartbeat_timeout or None,
        max_job_seconds=args.max_job_seconds or None,
        max_retries=args.max_retries,
        keyring=args.keyring,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import (
        ServiceClient,
        ServiceError,
        ServiceUnavailableError,
    )

    if args.kind in ("analyze", "profile"):
        _resolve_benchmarks(args.benchmark)  # fail fast, before the network
    params = {}
    if args.kind in ("analyze", "profile"):
        params["benchmark"] = args.benchmark
        if args.engine is not None:
            params["engine"] = args.engine
    elif args.kind == "conformance":
        # positional: "all" = the whole registry, "none" = fuzz only,
        # otherwise a comma-separated subset (validated before the wire)
        if args.benchmark == "all":
            params["benchmarks"] = None
        elif args.benchmark == "none":
            params["benchmarks"] = []
        else:
            params["benchmarks"] = _resolve_benchmarks(args.benchmark)
        params["fuzz"] = args.fuzz
        params["seed"] = args.seed
        if args.engine is not None:
            params["engine"] = args.engine
    else:
        params["objective"] = args.benchmark
        if args.islands is not None:
            params["islands"] = args.islands
        if args.migration_interval is not None:
            params["migration_interval"] = args.migration_interval
    client = ServiceClient(args.url)
    try:
        job = client.submit(
            args.kind,
            priority=args.priority,
            deadline_s=args.deadline or None,
            **params,
        )
        if args.no_wait:
            print(f"{job['job_id']}: {job['state']}"
                  f"{' (deduped)' if job.get('deduped') else ''}")
            return 0
        payload = client.result(job["job_id"], timeout=args.timeout)
    except ServiceUnavailableError as err:
        # the client already retried with backoff; the service is down
        print(
            f"repro submit: {err}; is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    except ServiceError as err:
        print(f"repro submit: {err}", file=sys.stderr)
        return 1
    except TimeoutError as err:
        # the job may well still be running server-side — distinguish
        # "slow" from "down" (TimeoutError is an OSError: catch it first)
        print(
            f"repro submit: {err}; the job may still be running — "
            f"retry or query its status",
            file=sys.stderr,
        )
        return 1
    result = payload.get("result", {})
    dedup = " (deduped)" if job.get("deduped") else ""
    if result.get("kind") == "analysis":
        print(
            f"{result['benchmark']}: peak {result['peak_power_mw']:.3f} mW, "
            f"NPE {result['npe_pj_per_cycle']:.2f} pJ/cycle, "
            f"{result['n_segments']} segments "
            f"[{payload['job_id']}{dedup}]"
        )
    elif result.get("kind") == "profiling":
        print(
            f"{result['benchmark']}: observed "
            f"{result['observed_peak_power_mw']:.3f} mW, guardbanded "
            f"{result['guardbanded_peak_power_mw']:.3f} mW "
            f"[{payload['job_id']}{dedup}]"
        )
    elif result.get("kind") == "conformance":
        n_div = len(result.get("divergences", []))
        status = "OK" if result.get("ok") else f"{n_div} DIVERGENCE(S)"
        print(
            f"conformance: {status}, "
            f"{len(result.get('benchmarks', []))} benchmark runs, "
            f"{result.get('fuzz_units', 0)} fuzz units "
            f"[{payload['job_id']}{dedup}]"
        )
        for entry in result.get("divergence_artifacts", []):
            print(f"  reproducer artifact: {entry}")
    elif result.get("kind") == "stressmark":
        print(
            f"stressmark({result['objective']}): peak "
            f"{result['peak_power_mw']:.3f} mW, avg "
            f"{result['avg_power_mw']:.3f} mW [{payload['job_id']}{dedup}]"
        )
    else:
        import json

        print(json.dumps(payload, indent=2))
    return 0


def cmd_upload(args: argparse.Namespace) -> int:
    from repro.service.client import (
        JobFailedError,
        RateLimitedError,
        ServiceClient,
        ServiceError,
        ServiceUnavailableError,
    )

    path = Path(args.program)
    try:
        source = path.read_text()
    except OSError as err:
        raise CliError(f"cannot read {args.program}: {err}")
    name = args.name or path.stem
    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        job = client.upload(
            source,
            name=name,
            loop_bound=args.loop_bound,
            max_cycles=args.max_cycles,
            max_segments=args.max_segments,
        )
        if args.no_wait:
            print(f"{job['job_id']}: {job['state']} "
                  f"(program {job['program_id']}"
                  f"{', deduped' if job.get('deduped') else ''})")
            return 0
        payload = client.result(job["job_id"], timeout=args.timeout)
    except ServiceUnavailableError as err:
        print(f"repro upload: {err}; is `repro serve` running?",
              file=sys.stderr)
        return 1
    except RateLimitedError as err:
        print(f"repro upload: {err} — retry in {err.retry_after_s:.0f}s",
              file=sys.stderr)
        return 1
    except JobFailedError as err:
        # structured upload rejection (bad assembly, tripped budget, ...)
        code = err.payload.get("code", "job_failed")
        print(f"repro upload: [{code}] {err.payload.get('error', err)}",
              file=sys.stderr)
        return 1
    except ServiceError as err:
        print(f"repro upload: {err}", file=sys.stderr)
        return 1
    except TimeoutError as err:
        print(f"repro upload: {err}; the job may still be running — "
              f"retry or query its status", file=sys.stderr)
        return 1
    result = payload.get("result", {})
    if args.json:
        import json

        print(json.dumps(result, sort_keys=True))
        return 0
    dedup = " (deduped)" if job.get("deduped") else ""
    cached = " [cached]" if result.get("cached") else ""
    print(f"{result.get('name', name)} "
          f"({result.get('program_id', job.get('program_id'))}): "
          f"peak {result['peak_power_mw']:.3f} mW, "
          f"{result['peak_energy_pj']:.1f} pJ, "
          f"NPE {result['npe_pj_per_cycle']:.3f} pJ/cycle "
          f"[{payload['job_id']}{dedup}]{cached}")
    return 0


def cmd_keys(args: argparse.Namespace) -> int:
    from repro.tenancy import Keyring, KeyringError

    keyring = Keyring(args.keyring)
    try:
        if args.keys_command == "add":
            quotas = None
            overrides = {
                key: value
                for key, value in (
                    ("requests_per_min", args.requests_per_min),
                    ("burst", args.burst),
                    ("max_concurrent_jobs", args.max_jobs),
                    ("max_source_bytes", args.max_source_bytes),
                    ("max_job_seconds", args.max_job_seconds),
                    ("result_ttl_s", args.result_ttl),
                )
                if value is not None
            }
            if overrides:
                from repro.tenancy import TenantQuotas

                quotas = TenantQuotas.from_dict(overrides)
            tenant, plaintext = keyring.add(
                args.tenant, admin=args.admin, quotas=quotas
            )
            print(f"tenant {tenant.id!r} added to {keyring.path}")
            print("API key (shown once, only its hash is stored):")
            print(plaintext)
            return 0
        if args.keys_command == "revoke":
            keyring.revoke(args.tenant)
            print(f"tenant {args.tenant!r} revoked in {keyring.path}")
            return 0
        # list
        tenants = keyring.tenants()
        if not tenants:
            print(f"{keyring.path}: no tenants")
            return 0
        for tenant in tenants:
            q = tenant.quotas
            flags = "".join(
                flag for flag, on in (
                    (" admin", tenant.admin), (" REVOKED", tenant.revoked)
                ) if on
            )
            print(f"{tenant.id}{flags}: {q.requests_per_min:g} req/min "
                  f"(burst {q.burst}), {q.max_concurrent_jobs} jobs, "
                  f"src<={q.max_source_bytes}B, "
                  f"{q.max_job_seconds:g}s/job, "
                  f"ttl {q.result_ttl_s:g}s")
        return 0
    except KeyringError as err:
        raise CliError(str(err))


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.bench import runner

    if args.store is not None:
        runner.CACHE_DIR = Path(args.store)
    store = runner.artifact_store()
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"store      : {stats.root}")
        print(f"entries    : {stats.n_entries} "
              f"({stats.n_legacy} legacy, {stats.n_stale} stale)")
        print(f"total size : {stats.total_bytes / (1024 * 1024):.2f} MB")
        for kind, count in sorted(stats.by_kind.items()):
            print(f"  {kind:<12} {count}")
        counters = stats.counters
        print(f"this run   : {counters.hits_total} hits "
              f"({counters.hits_memory} memory, {counters.hits_disk} disk), "
              f"{counters.misses} misses, {counters.writes} writes")
        return 0
    report = store.gc(max_mb=args.max_mb)
    print(f"removed {len(report.removed)} artifacts, "
          f"freed {report.freed_bytes / (1024 * 1024):.2f} MB; "
          f"{report.kept_entries} kept "
          f"({report.remaining_bytes / (1024 * 1024):.2f} MB)")
    for name in report.removed:
        print(f"  - {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Input-independent peak power/energy bounds for ULP "
                    "processors (ASPLOS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--engine", choices=ENGINES, default=None,
            help="simulation representation: the compiled C kernels on "
                 "packed dual-rail bit planes (default; the reference "
                 "engine when no C compiler), or the uint8 reference "
                 "evaluator; results are bit-identical (also "
                 "$REPRO_ENGINE)",
        )

    p_analyze = sub.add_parser("analyze", help="X-based analysis of a program")
    p_analyze.add_argument("program", help="assembly source file")
    p_analyze.add_argument("--loop-bound", type=int, default=None)
    p_analyze.add_argument("--vcd-dir", default=None,
                           help="write even/odd VCD artifacts here")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the bound as one JSON object "
                                "(bit-exact floats, for scripting/CI)")
    add_engine(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_profile = sub.add_parser("profile", help="guardbanded input profiling")
    p_profile.add_argument("program")
    p_profile.add_argument("--inputs", action="append", required=True,
                           help="comma-separated input words; repeatable")
    add_engine(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_coi = sub.add_parser("coi", help="cycles-of-interest report")
    p_coi.add_argument("program")
    p_coi.add_argument("--count", type=int, default=5)
    p_coi.add_argument("--loop-bound", type=int, default=None)
    add_engine(p_coi)
    p_coi.set_defaults(func=cmd_coi)

    def add_island_knobs(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--islands", type=_positive_int, default=None, metavar="N",
            help="GA island populations for stressmark generation "
                 "(default 1 = classic single population)",
        )
        sub_parser.add_argument(
            "--migration-interval", type=_positive_int, default=None,
            metavar="G",
            help="generations between island ring migrations (default 2)",
        )

    p_suite = sub.add_parser("suite", help="run Table 4.1 benchmarks")
    p_suite.add_argument("--benchmarks", default=None,
                         help="comma-separated subset (default: all)")
    p_suite.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default: one per benchmark, "
                              "capped at the core count; 1 = in-process)")
    p_suite.add_argument("--no-cache", action="store_true",
                         help="bypass the versioned artifact store "
                              "(same as REPRO_NO_CACHE=1)")
    add_engine(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser(
        "bench", help="time each pipeline phase (explore per engine), "
                      "write perf JSON"
    )
    p_bench.add_argument("--benchmarks", default=None,
                         help="comma-separated subset (default: all 14)")
    p_bench.add_argument("--output", default="BENCH_suite.json")
    p_bench.add_argument("--repeats", type=int, default=1)
    add_engine(p_bench)
    add_island_knobs(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_conf = sub.add_parser(
        "conformance",
        help="lock-step co-execution oracle: ISS vs gate-level engines",
    )
    p_conf.add_argument(
        "--benchmarks", default=None,
        help="comma-separated registry subset to co-execute (default: "
             "all 14 when --fuzz is 0, none otherwise)",
    )
    p_conf.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="co-execute seeded random programs totalling N instruction "
             "units per engine (0 = benchmark leg only)",
    )
    p_conf.add_argument(
        "--seed", type=int, default=2017,
        help="fuzz campaign seed; a divergence report names the exact "
             "per-program seed to replay (default 2017)",
    )
    p_conf.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="restrict to one engine (default: all of "
             f"{', '.join(ENGINES)})",
    )
    p_conf.add_argument(
        "--program-size", type=int, default=40, metavar="K",
        help="instructions per generated fuzz program (default 40)",
    )
    p_conf.add_argument(
        "--output", default=None, metavar="DIR",
        help="directory for divergence reproducers (default: cwd)",
    )
    p_conf.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    p_conf.set_defaults(func=cmd_conformance)

    from repro.service.server import DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve", help="run the HTTP analysis service (scheduler + store)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="artifact-store directory "
                              "(default: .repro_cache)")
    p_serve.add_argument("--max-jobs", type=int, default=None, metavar="N",
                         help="concurrent job slots (default: the "
                              "core count)")
    p_serve.add_argument("--backend", choices=("process", "thread"),
                         default="process",
                         help="job execution backend: 'process' (default) "
                              "runs each job in its own worker process — "
                              "crash isolation and real cancellation; "
                              "'thread' runs executors in-process")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.add_argument("--no-recover", action="store_true",
                         help="skip journal replay on startup (jobs from "
                              "a previous run are NOT requeued)")
    p_serve.add_argument("--heartbeat-timeout", type=float, default=300.0,
                         metavar="S",
                         help="kill a worker silent for S seconds — engine "
                              "checkpoints heartbeat, so a healthy job "
                              "stays loud (default 300; 0 disables)")
    p_serve.add_argument("--max-job-seconds", type=float, default=0.0,
                         metavar="S",
                         help="default per-job wall-clock deadline "
                              "(0 = none; per-request deadline_s "
                              "overrides)")
    p_serve.add_argument("--max-retries", type=int, default=None, metavar="N",
                         help="retries for crashed/hung workers "
                              "(default 2; executor exceptions are "
                              "never retried)")
    p_serve.add_argument("--keyring", default=None, metavar="FILE",
                         help="tenant keyring JSON (see `repro keys`); "
                              "when set, every request except /healthz "
                              "needs a valid API key and per-tenant "
                              "rate/job quotas apply")
    p_serve.set_defaults(func=cmd_serve, engine=None, islands=None,
                         migration_interval=None)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running analysis service"
    )
    p_submit.add_argument(
        "benchmark",
        help="benchmark name (kinds analyze/profile), GA objective "
             "peak|average (kind stressmark), or a comma-separated "
             "subset / 'all' / 'none' (kind conformance)",
    )
    p_submit.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}")
    p_submit.add_argument("--kind", default="analyze",
                          choices=("analyze", "profile", "stressmark",
                                   "conformance"))
    p_submit.add_argument("--fuzz", type=int, default=0, metavar="N",
                          help="kind conformance: fuzz N instruction "
                               "units per engine")
    p_submit.add_argument("--seed", type=int, default=2017,
                          help="kind conformance: fuzz campaign seed")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job id and return immediately")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for the result")
    p_submit.add_argument("--deadline", type=float, default=0.0, metavar="S",
                          help="server-side wall-clock budget: the job is "
                               "killed and failed past S seconds (0 = none)")
    p_submit.add_argument("--engine", choices=ENGINES, default=None,
                          help="simulation engine the server should use "
                               "for this job (kinds analyze/profile)")
    add_island_knobs(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_upload = sub.add_parser(
        "upload",
        help="upload assembly source to a running service's gateway "
             "and print the guaranteed bound",
    )
    p_upload.add_argument("program", help="assembly source file")
    p_upload.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}")
    p_upload.add_argument("--api-key", default=None,
                          help="tenant API key (rk_...; required when the "
                               "server runs with --keyring)")
    p_upload.add_argument("--name", default=None,
                          help="program name (default: the file stem)")
    p_upload.add_argument("--loop-bound", type=int, default=None)
    p_upload.add_argument("--max-cycles", type=int, default=None,
                          help="total simulated-cycle budget (capped at "
                               "the server default)")
    p_upload.add_argument("--max-segments", type=int, default=None,
                          help="execution-tree segment budget (capped at "
                               "the server default)")
    p_upload.add_argument("--no-wait", action="store_true",
                          help="print the job id and return immediately")
    p_upload.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for the result")
    p_upload.add_argument("--json", action="store_true",
                          help="print the result payload as one JSON "
                               "object (bit-exact floats)")
    p_upload.set_defaults(func=cmd_upload)

    p_keys = sub.add_parser(
        "keys", help="administer a gateway keyring file (API keys, quotas)"
    )
    keys_sub = p_keys.add_subparsers(dest="keys_command", required=True)

    def add_keyring_arg(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--keyring", default="keyring.json", metavar="FILE",
            help="keyring JSON file (default: keyring.json)",
        )

    p_keys_add = keys_sub.add_parser(
        "add", help="create a tenant; prints its API key exactly once"
    )
    add_keyring_arg(p_keys_add)
    p_keys_add.add_argument("tenant", help="tenant id ([A-Za-z0-9._-]+)")
    p_keys_add.add_argument("--admin", action="store_true",
                            help="admin tenants may run store maintenance "
                                 "and see every tenant's jobs")
    p_keys_add.add_argument("--requests-per-min", type=float, default=None)
    p_keys_add.add_argument("--burst", type=int, default=None)
    p_keys_add.add_argument("--max-jobs", type=int, default=None,
                            help="concurrent queued+running job quota")
    p_keys_add.add_argument("--max-source-bytes", type=int, default=None)
    p_keys_add.add_argument("--max-job-seconds", type=float, default=None)
    p_keys_add.add_argument("--result-ttl", type=float, default=None,
                            metavar="S",
                            help="seconds an uploaded result stays in the "
                                 "store before gc may evict it")
    p_keys_list = keys_sub.add_parser(
        "list", help="list tenants and their quotas"
    )
    add_keyring_arg(p_keys_list)
    p_keys_revoke = keys_sub.add_parser(
        "revoke", help="revoke a tenant's key (kept in the file for audit)"
    )
    p_keys_revoke.add_argument("tenant")
    add_keyring_arg(p_keys_revoke)
    p_keys.set_defaults(func=cmd_keys)

    p_cache = sub.add_parser(
        "cache", help="inspect or trim the artifact store"
    )
    p_cache.add_argument("--store", default=None, metavar="DIR",
                         help="store directory (default: .repro_cache)")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats", help="entry counts, sizes, hit/miss counters"
    )
    p_gc = cache_sub.add_parser(
        "gc", help="drop stale/legacy artifacts, enforce a size cap"
    )
    p_gc.add_argument("--max-mb", type=float, default=None, metavar="N",
                      help="evict least-recently-used artifacts until the "
                           "store fits in N MB (stale and legacy entries "
                           "go first, cap or no cap)")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"repro: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

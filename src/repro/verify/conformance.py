"""The conformance driver shared by the CLI verb and the service job.

Two legs, both optional:

* **benchmark leg** — every requested registry benchmark, concretized
  with its seeded input set, co-executed lock-step on every requested
  engine (the "14 benchmarks x 2 engines" CI gate);
* **fuzz leg** — a seeded random-program campaign of N instruction units
  per engine, with automatic reproducer shrinking on divergence.

The aggregated :class:`ConformanceReport` serializes to JSON for the
service layer and renders human-readable for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.verify.coexec import CoexecResult, DivergenceReport, coexecute
from repro.verify.fuzz import fuzz_campaign


@dataclass
class ConformanceReport:
    """Aggregate of both legs; ``ok`` gates the CLI/CI exit status."""

    engines: tuple[str, ...]
    benchmarks: list[CoexecResult] = field(default_factory=list)
    fuzz_programs: int = 0
    fuzz_units: int = 0
    fuzz_seed: int | None = None
    divergences: list[DivergenceReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def payload(self) -> dict:
        return {
            "kind": "conformance",
            "ok": self.ok,
            "engines": list(self.engines),
            "benchmarks": [
                {
                    "benchmark": result.program,
                    "engine": result.engine,
                    "ok": result.ok,
                    "instructions": result.instructions,
                    "cycles": result.cycles,
                }
                for result in self.benchmarks
            ],
            "fuzz_programs": self.fuzz_programs,
            "fuzz_units": self.fuzz_units,
            "fuzz_seed": self.fuzz_seed,
            "divergences": [d.payload() for d in self.divergences],
        }


def run_conformance(
    cpu=None,
    benchmarks: list[str] | None = None,
    fuzz_instructions: int = 0,
    seed: int = 2017,
    engines: tuple[str, ...] | None = None,
    program_size: int = 40,
    input_seed: int = 2017,
    emit=None,
    cancel=None,
) -> ConformanceReport:
    """Run the benchmark and/or fuzz conformance legs.

    *benchmarks* is a list of registry names (``None`` with
    ``fuzz_instructions == 0`` means **all** of them; ``[]`` skips the
    leg).  *engines* defaults to every engine.  *emit* is an optional
    ``(stage, detail)`` progress callback; *cancel* a
    :class:`~repro.parallel.cancel.CancelToken` honored between runs.
    """
    from repro.bench.suite import ALL_BENCHMARKS
    from repro.sim.bitplane import ENGINES

    engines = tuple(engines) if engines else ENGINES
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
    if benchmarks is None:
        benchmarks = [] if fuzz_instructions else list(ALL_BENCHMARKS)
    unknown = [name for name in benchmarks if name not in ALL_BENCHMARKS]
    if unknown:
        valid = ", ".join(sorted(ALL_BENCHMARKS))
        raise KeyError(
            f"unknown benchmark{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))}; valid names: {valid}"
        )

    if cpu is None:
        from repro.cpu import build_ulp430

        cpu = build_ulp430()

    report = ConformanceReport(engines=engines)

    for name in benchmarks:
        benchmark = ALL_BENCHMARKS[name]
        program = benchmark.program()
        concrete = program.with_inputs(
            benchmark.input_sets(1, seed=input_seed)[0]
        )
        for engine in engines:
            if cancel is not None:
                cancel.check()
            result = coexecute(cpu, concrete, engine=engine)
            report.benchmarks.append(result)
            if result.ok:
                if emit:
                    emit(
                        "benchmark",
                        f"{name} on {engine}: {result.instructions} "
                        f"instructions lock-step clean",
                    )
                continue
            if emit:
                emit(
                    "divergence",
                    f"{name} on {engine}: {result.divergence.detail}",
                )
            report.divergences.append(DivergenceReport(
                divergence=result.divergence,
                engine=engine,
                program_name=name,
            ))

    if fuzz_instructions > 0:
        report.fuzz_seed = seed
        fuzz = fuzz_campaign(
            cpu, fuzz_instructions, seed, engines=engines,
            program_size=program_size, emit=emit, cancel=cancel,
        )
        report.fuzz_programs = fuzz.programs
        report.fuzz_units = fuzz.units
        report.divergences.extend(fuzz.divergences)

    return report

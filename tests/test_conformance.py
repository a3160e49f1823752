"""The lock-step co-execution oracle, end to end.

Pins (a) all 14 registry benchmarks lock-step clean under both
engines, (b) a seeded fuzz campaign clean across engines, (c) that an
intentionally-broken engine (a test-injected gate mutation forcing the V
flag DFF) is caught with a shrunk reproducer naming the first diverging
instruction, and (d) the CLI / service-job plumbing and exit codes.
"""

import pytest

from repro.bench.suite import ALL_BENCHMARKS
from repro.isa.spec import SR_V
from repro.sim.bitplane import ENGINES
from repro.verify import (
    DivergenceReport,
    coexecute,
    fuzz_campaign,
    generate_program,
    run_conformance,
)
from repro.verify.conformance import ConformanceReport


# ----------------------------------------------------------------------
# Tentpole acceptance: 14 benchmarks x 2 engines, lock-step clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_benchmark_lockstep_clean(cpu, engine, name):
    benchmark = ALL_BENCHMARKS[name]
    concrete = benchmark.program().with_inputs(benchmark.input_sets(1)[0])
    result = coexecute(cpu, concrete, engine=engine)
    assert result.ok, result.divergence.describe()
    assert result.instructions > 0
    assert result.cycles > result.instructions  # multicycle FSM


# ----------------------------------------------------------------------
# Fuzzing: seeded campaigns are deterministic and clean on all engines
# ----------------------------------------------------------------------
def test_fuzz_campaign_clean_all_engines(cpu):
    report = fuzz_campaign(cpu, 120, seed=2017, engines=ENGINES)
    assert report.ok, report.divergences[0].describe()
    assert report.units >= 120
    assert report.programs >= 1


def test_fuzz_generation_is_deterministic():
    one = generate_program(42, size=30).render()
    two = generate_program(42, size=30).render()
    assert one == two


def test_fuzz_programs_assemble_and_halt(cpu):
    from repro.isa.iss import InstructionSetSimulator

    for seed in (1, 7, 1234):
        fuzz_program = generate_program(seed, size=40)
        program = fuzz_program.assemble()
        iss = InstructionSetSimulator(
            program, port_in=fuzz_program.port_in
        )
        iss.run(max_instructions=5000)  # raises if it never halts
        assert iss.halted


# ----------------------------------------------------------------------
# The broken-engine drill: a gate mutation must be caught and shrunk
# ----------------------------------------------------------------------
class _StuckVFlagMachine:
    """Proxy forcing the V-flag DFF to 1 before every clock edge —
    a stand-in for a miscompiled engine or a netlist regression."""

    def __init__(self, cpu, machine):
        object.__setattr__(self, "_cpu", cpu)
        object.__setattr__(self, "_machine", machine)

    def step(self, *args, **kwargs):
        self._machine.next_dff_forces[
            self._cpu.flag_dff_for(SR_V)
        ] = 1
        return self._machine.step(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._machine, name)

    def __setattr__(self, name, value):
        setattr(self._machine, name, value)


def test_broken_engine_caught_with_shrunk_reproducer(cpu):
    def factory(program):
        return _StuckVFlagMachine(
            cpu,
            cpu.make_machine(
                program, symbolic_inputs=False, port_in=0,
                engine="native",
            ),
        )

    report = fuzz_campaign(
        cpu, 200, seed=99, engines=("native",),
        machine_factory=factory,
    )
    assert not report.ok
    divergence = report.divergences[0]
    assert isinstance(divergence, DivergenceReport)
    # the report names the first diverging instruction...
    assert divergence.divergence.kind == "flag"
    assert "SR.V" in divergence.divergence.detail
    assert divergence.divergence.source  # the culprit's assembly text
    assert divergence.divergence.pc >= 0xF000
    # ...dumps both architectural states...
    assert divergence.divergence.iss_state["flags"].endswith("V=0")
    assert divergence.divergence.gate_state["flags"].endswith("V=1")
    # ...and carries a shrunk reproducer that still reproduces
    assert divergence.shrunk_units is not None
    assert divergence.shrunk_units < divergence.original_units
    assert divergence.reproducer_asm is not None
    from repro.asm import assemble

    reproducer = assemble(divergence.reproducer_asm, "reproducer")
    replay = coexecute(
        cpu, reproducer, engine="native",
        machine=factory(reproducer),
    )
    assert not replay.ok
    assert replay.divergence.kind == "flag"


def test_healthy_engine_passes_the_same_campaign(cpu):
    # the sabotage test is only meaningful if the identical campaign is
    # clean without the mutation
    report = fuzz_campaign(cpu, 200, seed=99, engines=("native",))
    assert report.ok


# ----------------------------------------------------------------------
# Driver: run_conformance aggregation and validation
# ----------------------------------------------------------------------
def test_run_conformance_benchmark_leg(cpu):
    report = run_conformance(
        cpu=cpu, benchmarks=["mult"], engines=("native",)
    )
    assert report.ok
    assert len(report.benchmarks) == 1
    payload = report.payload()
    assert payload["kind"] == "conformance"
    assert payload["ok"] is True
    assert payload["benchmarks"][0]["benchmark"] == "mult"


def test_run_conformance_fuzz_only_default_skips_benchmarks(cpu):
    report = run_conformance(
        cpu=cpu, fuzz_instructions=40, seed=3, engines=("native",)
    )
    assert report.benchmarks == []
    assert report.fuzz_units >= 40


def test_run_conformance_rejects_unknown_names(cpu):
    with pytest.raises(KeyError, match="valid names"):
        run_conformance(cpu=cpu, benchmarks=["nosuch"])
    with pytest.raises(ValueError, match="unknown engine"):
        run_conformance(
            cpu=cpu, benchmarks=["mult"], engines=("warp",)
        )


def test_conformance_cancellation(cpu):
    from repro.parallel.cancel import CancelToken, JobCancelled

    token = CancelToken()
    token.set()
    with pytest.raises(JobCancelled):
        run_conformance(
            cpu=cpu, benchmarks=["mult"], engines=("native",),
            cancel=token,
        )


# ----------------------------------------------------------------------
# CLI: exit codes and reproducer files
# ----------------------------------------------------------------------
def test_cli_conformance_clean_exits_zero(capsys):
    from repro import cli

    rc = cli.main([
        "conformance", "--benchmarks", "mult", "--engine", "native",
        "--quiet",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "benchmarks: 1/1 program-engine runs" in out  # one engine
    assert "conformance OK" in out


def test_cli_conformance_unknown_benchmark_exits_two(capsys):
    from repro import cli

    rc = cli.main(["conformance", "--benchmarks", "nosuch"])
    assert rc == 2
    assert "valid names" in capsys.readouterr().err


def test_cli_conformance_negative_fuzz_exits_two(capsys):
    from repro import cli

    rc = cli.main(["conformance", "--fuzz", "-5"])
    assert rc == 2


def test_cli_conformance_divergence_exits_one(
    capsys, tmp_path, monkeypatch
):
    import repro.verify
    from repro import cli
    from repro.verify.coexec import Divergence

    fake = ConformanceReport(engines=("native",))
    fake.divergences.append(DivergenceReport(
        divergence=Divergence(
            kind="flag", index=3, pc=0xF010, source="add r4, r5",
            detail="SR.V: iss=0 gate=1",
        ),
        engine="native",
        program_name="fuzz_77",
        seed=77,
        reproducer_asm="    .org 0xf000\nend:\n    jmp end\n",
        original_units=40,
        shrunk_units=2,
    ))
    monkeypatch.setattr(
        repro.verify, "run_conformance", lambda **kwargs: fake
    )
    rc = cli.main([
        "conformance", "--fuzz", "100", "--engine", "native",
        "--output", str(tmp_path), "--quiet",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "first divergence at instruction #3" in out
    reproducer = tmp_path / "divergence_fuzz_77_native.asm"
    assert reproducer.exists()
    assert "jmp end" in reproducer.read_text()
    assert str(reproducer) in out


# ----------------------------------------------------------------------
# Service layer: the conformance job kind
# ----------------------------------------------------------------------
def test_conformance_job_thread_backend():
    from repro.service.scheduler import JobScheduler

    scheduler = JobScheduler(max_concurrent=1, backend="thread")
    try:
        job, deduped = scheduler.submit(
            "conformance",
            {
                "benchmarks": ["mult"],
                "fuzz": 40,
                "seed": 3,
                "engine": "native",
            },
        )
        assert not deduped
        assert scheduler.wait(job.id, timeout=300)
        assert job.state == "done", job.error
        assert job.result["ok"] is True
        assert job.result["fuzz_units"] >= 40
        # identical resubmission dedupes onto the finished signature
        again, deduped2 = scheduler.submit(
            "conformance",
            {
                "benchmarks": ["mult"],
                "fuzz": 40,
                "seed": 3,
                "engine": "native",
            },
        )
        assert scheduler.wait(again.id, timeout=300)
    finally:
        scheduler.shutdown()


def test_conformance_normalize_params_validation():
    from repro.service.scheduler import normalize_params

    params = normalize_params(
        "conformance", {"benchmarks": "mult,FFT"}
    )
    assert params["benchmarks"] == ["mult", "FFT"]
    assert params["fuzz"] == 0
    assert params["seed"] == 2017
    assert params["engine"] is None
    with pytest.raises(ValueError, match="unknown engine"):
        normalize_params("conformance", {"engine": "warp"})
    with pytest.raises(KeyError, match="valid names"):
        normalize_params("conformance", {"benchmarks": ["nosuch"]})
    with pytest.raises(ValueError, match="fuzz"):
        normalize_params("conformance", {"fuzz": -1})


def test_conformance_job_stores_divergence_artifacts(
    tmp_path, monkeypatch
):
    import repro.verify
    from repro.bench import runner
    from repro.service.scheduler import run_conformance_job
    from repro.verify.coexec import Divergence

    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "store")

    fake = ConformanceReport(engines=("native",))
    fake.divergences.append(DivergenceReport(
        divergence=Divergence(
            kind="register", index=1, pc=0xF004, source="mov r4, r5",
            detail="r5: iss=0x0001 gate=0x0002",
        ),
        engine="native",
        program_name="fuzz_5",
        seed=5,
        reproducer_asm="    .org 0xf000\nend:\n    jmp end\n",
        original_units=40,
        shrunk_units=1,
    ))
    monkeypatch.setattr(
        repro.verify, "run_conformance", lambda **kwargs: fake
    )

    class _Ctx:
        cancel = None

        def emit(self, stage, detail=""):
            pass

    payload = run_conformance_job({"fuzz": 100, "seed": 5}, _Ctx())
    assert payload["ok"] is False
    keys = payload["divergence_artifacts"]
    assert keys == ["divergence_fuzz_5_native_seed5"]
    stored = runner.artifact_store().get(keys[0])
    assert stored["seed"] == 5
    assert "jmp end" in stored["reproducer_asm"]

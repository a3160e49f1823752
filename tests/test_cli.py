"""CLI smoke tests (analyze / profile / coi subcommands)."""

import functools

import pytest

from repro import cli
from repro.cli import build_parser, main

SOURCE = """
        .equ WDTCTL, 0x0120
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #inp, r4
        add @r4+, r5
        add @r4, r5
        mov r5, &0x0300
end:    jmp end
        .org 0x0240
inp:    .input 2
"""


#: sources the analysis fails on, each with the one line it must print
FAILING_PROGRAMS = {
    "missing": (None, "cannot read {path}: No such file or directory"),
    "bad": ("start: frobnicate r4, r5\n", "{path}: unknown mnemonic"),
    "spin": (
        """
        .org 0xF000
loop:   inc r4
        jmp loop
""",
        "exploration budget exceeded: spin: exceeded 2000 total cycles",
    ),
    "jumpx": (
        """
        .org 0xF000
start:  mov #inp, r4
        mov @r4, r5
        mov r5, pc
        .org 0x0240
inp:    .input 1
""",
        "unresolved PC: PC became unknown while dispatching non-jump word",
    ),
    "wait": (
        """
        .org 0xF000
start:  mov #0x5A80, &0x0120
        mov #inp, r4
again:  mov @r4, r5
        tst r5
        jnz again
end:    jmp end
        .org 0x0240
inp:    .input 1
""",
        "unbounded peak energy: execution tree has an input-dependent loop",
    ),
}


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "demo.asm"
    path.write_text(SOURCE)
    return str(path)


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "peak power" in out and "mW" in out

    def test_analyze_engines_agree(self, program_file, capsys, monkeypatch):
        """--engine reference and --engine native print the same numbers
        (and the flag exports REPRO_ENGINE for downstream machines)."""
        import os

        # setenv (not delenv) so monkeypatch records the original absence
        # and removes the variable again at teardown even though the CLI
        # handler overwrites it via os.environ directly.
        monkeypatch.setenv("REPRO_ENGINE", "native")
        outputs = []
        for engine in ("native", "reference"):
            assert main(["analyze", program_file, "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
            assert os.environ["REPRO_ENGINE"] == engine
        assert outputs[0] == outputs[1]

    def test_analyze_writes_vcds(self, program_file, tmp_path, capsys):
        vcd_dir = tmp_path / "vcds"
        assert main(["analyze", program_file, "--vcd-dir", str(vcd_dir)]) == 0
        assert (vcd_dir / "even.vcd").exists()
        assert (vcd_dir / "odd.vcd").exists()

    def test_profile(self, program_file, capsys):
        assert main(
            ["profile", program_file, "--inputs", "1,2", "--inputs", "0xFFFF,3"]
        ) == 0
        out = capsys.readouterr().out
        assert "guardbanded" in out

    @pytest.mark.parametrize(
        "inputs, message",
        [
            (["3,5", "7,9,11"], "expects 2 input words, got 3"),
            (["3"], "expects 2 input words, got 1"),
            (["3,x"], "expected comma-separated integers"),
        ],
    )
    def test_profile_bad_inputs_exit_2(
        self, program_file, capsys, inputs, message
    ):
        argv = ["profile", program_file]
        for spec in inputs:
            argv += ["--inputs", spec]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: --inputs ") and message in err
        assert "Traceback" not in err

    def test_coi(self, program_file, capsys):
        assert main(["coi", program_file, "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "executing" in out


class TestProgramErrors:
    """A program the analysis cannot take exits 2 with one line."""

    @pytest.mark.parametrize("verb", ["analyze", "coi"])
    @pytest.mark.parametrize("name", sorted(FAILING_PROGRAMS))
    def test_exit_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, verb, name
    ):
        # a small cycle budget keeps the non-halting case quick
        monkeypatch.setattr(
            cli, "analyze", functools.partial(cli.analyze, max_cycles=2000)
        )
        source, message = FAILING_PROGRAMS[name]
        path = tmp_path / f"{name}.asm"
        if source is not None:
            path.write_text(source)
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: " + message.format(path=path))
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_profile_over_its_cycle_budget(self, tmp_path, capsys, monkeypatch):
        # the default budget takes seconds to run out; the error is the same
        monkeypatch.setattr(
            cli, "input_profiling",
            functools.partial(cli.input_profiling, max_cycles=200),
        )
        path = tmp_path / "spin.asm"
        path.write_text(
            FAILING_PROGRAMS["spin"][0] + "        .org 0x0240\ninp:    .input 1\n"
        )
        assert main(["profile", str(path), "--inputs", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: concrete run over its cycle budget: "
            "no halt within 200 cycles\n"
        )

    @pytest.mark.parametrize("name", ["missing", "bad"])
    def test_profile_load_errors(self, tmp_path, capsys, name):
        source, message = FAILING_PROGRAMS[name]
        path = tmp_path / f"{name}.asm"
        if source is not None:
            path.write_text(source)
        assert main(["profile", str(path), "--inputs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: " + message.format(path=path))


class TestUnknownBenchmarkErrors:
    """`suite`/`bench` typos exit 2 with the valid names, no traceback."""

    def test_suite_unknown_name(self, capsys):
        assert main(["suite", "--benchmarks", "nosuchbench"]) == 2
        err = capsys.readouterr().err
        assert "nosuchbench" in err
        assert "mult" in err and "Viterbi" in err  # lists valid names
        assert "Traceback" not in err

    def test_suite_mixed_known_and_unknown(self, capsys):
        assert main(["suite", "--benchmarks", "mult,typo1,typo2"]) == 2
        err = capsys.readouterr().err
        assert "'typo1'" in err and "'typo2'" in err

    def test_suite_empty_selection(self, capsys):
        assert main(["suite", "--benchmarks", ","]) == 2
        assert "selected nothing" in capsys.readouterr().err

    def test_bench_unknown_name(self, capsys):
        assert main(["bench", "--benchmarks", "nosuchbench"]) == 2
        err = capsys.readouterr().err
        assert "nosuchbench" in err and "mult" in err

    def test_submit_validates_before_the_network(self, capsys):
        # an unknown benchmark never leaves the process (no server here)
        assert main(
            ["submit", "nosuchbench", "--url", "http://127.0.0.1:1"]
        ) == 2
        err = capsys.readouterr().err
        assert "nosuchbench" in err and "mult" in err


class TestServiceCli:
    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        assert main(
            ["submit", "mult", "--url", "http://127.0.0.1:1", "--timeout", "2"]
        ) == 1
        err = capsys.readouterr().err
        assert "repro serve" in err

    def test_submit_slow_job_is_not_reported_as_down(self, capsys,
                                                     monkeypatch):
        """A result-wait timeout must say 'still running', not blame a
        dead server (TimeoutError is an OSError subclass — order
        matters in the handler)."""
        from repro.service import client as client_mod

        def fake_submit(self, kind="analyze", priority=0, **params):
            return {"job_id": "job-00001", "state": "queued"}

        def fake_result(self, job_id, timeout=300.0):
            raise TimeoutError(
                f"job {job_id} did not finish within {timeout:.0f}s"
            )

        monkeypatch.setattr(client_mod.ServiceClient, "submit", fake_submit)
        monkeypatch.setattr(client_mod.ServiceClient, "result", fake_result)
        assert main(["submit", "mult", "--timeout", "1"]) == 1
        err = capsys.readouterr().err
        assert "may still be running" in err
        assert "repro serve" not in err

    @pytest.mark.parametrize(
        "flag", ["--islands", "--migration-interval", "--batch-size"]
    )
    def test_suite_rejects_removed_flags(self, flag, capsys):
        """``suite`` breeds no stressmark, so it takes no GA island
        flags, and no command takes a lock-step width."""
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--benchmarks", "mult", flag, "3"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "serve"])
    def test_workers_flag_is_gone(self, command, capsys):
        """The GA scores every island in one process, so no command
        takes an island worker count."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "1"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--islands", "--migration-interval"])
    def test_bench_island_knobs_must_be_positive(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", flag, "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: must be >= 1, got 0" in err
        assert "Traceback" not in err


class TestCacheCli:
    @pytest.fixture
    def isolated_store(self, tmp_path, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(runner, "_store", None)
        yield runner
        for key in list(runner._memory_cache):
            if key.startswith("unit_"):
                runner._memory_cache.pop(key)
        runner._store = None

    def test_cache_stats(self, isolated_store, capsys):
        runner = isolated_store
        runner._cached("unit_cli_key", lambda: {"v": 1})
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert str(runner.CACHE_DIR) in out

    def test_cache_gc_with_cap(self, isolated_store, capsys):
        runner = isolated_store
        runner._cached("unit_cli_key", lambda: {"v": 1})
        runner._memory_cache.pop("unit_cli_key")
        assert main(["cache", "gc", "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 artifacts" in out
        assert not list(runner.CACHE_DIR.glob("*.pkl"))

    def test_cache_gc_collects_legacy_entries(self, isolated_store, capsys):
        import pickle

        runner = isolated_store
        runner.CACHE_DIR.mkdir(parents=True)
        (runner.CACHE_DIR / "xbased_FFT.pkl").write_bytes(
            pickle.dumps("seed-era entry")
        )
        assert main(["cache", "stats"]) == 0
        assert "1 legacy" in capsys.readouterr().out
        assert main(["cache", "gc"]) == 0
        assert "removed 1 artifacts" in capsys.readouterr().out
        assert not (runner.CACHE_DIR / "xbased_FFT.pkl").exists()

    def test_cache_explicit_store_dir(self, tmp_path, capsys, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner, "_store", None)
        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "unused")
        target = tmp_path / "elsewhere"
        assert main(["cache", "--store", str(target), "stats"]) == 0
        assert str(target) in capsys.readouterr().out
        runner._store = None

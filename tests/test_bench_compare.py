"""The perf-regression gate: thresholds, noise floors, schema drift."""

import json

import pytest

from repro.bench.compare import PHASES, compare_reports, main


def _report(native_s, stacked_s=0.5, stress_s=1.0, name="mult"):
    return {
        "schema": 2,
        "benchmarks": [
            {
                "name": name,
                "explore": {"native_s": native_s, "batched_s": 2.0},
                "peakpower": {"stacked_s": stacked_s},
                "peakenergy": {"s": 0.001},
                "baselines": {"batched_s": 1.0},
            }
        ],
        "stressmark": {"batched_s": stress_s},
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        failures, n_compared = compare_reports(_report(1.0), _report(1.0))
        assert failures == []
        assert n_compared > 0

    def test_slowdown_over_threshold_fails(self):
        failures, _n = compare_reports(_report(3.0), _report(1.0), threshold=2.5)
        assert len(failures) == 1
        assert "mult.explore.native_s" in failures[0]

    def test_slowdown_under_threshold_passes(self):
        failures, _n = compare_reports(_report(2.4), _report(1.0), threshold=2.5)
        assert failures == []

    def test_stressmark_gated(self):
        failures, _n = compare_reports(
            _report(1.0, stress_s=9.0), _report(1.0, stress_s=1.0)
        )
        assert any("stressmark" in failure for failure in failures)

    def test_noise_floor_ignored(self):
        """peakenergy ~1ms entries never trip the gate."""
        current = _report(1.0)
        current["benchmarks"][0]["peakenergy"]["s"] = 0.04
        assert compare_reports(current, _report(1.0))[0] == []

    def test_missing_benchmark_skipped(self):
        current = _report(5.0, name="onlyInCurrent")
        failures, n_compared = compare_reports(
            current, _report(1.0, name="mult")
        )
        assert failures == []
        assert n_compared == 1  # only the stressmark entry overlaps

    def test_missing_phase_skipped(self):
        current = _report(1.0)
        baseline = _report(1.0)
        del baseline["benchmarks"][0]["peakpower"]
        current["benchmarks"][0]["peakpower"]["stacked_s"] = 99.0
        assert compare_reports(current, baseline)[0] == []


class TestCli:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", _report(1.0))
        baseline = self._write(tmp_path, "baseline.json", _report(1.0))
        assert main([current, baseline]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", _report(9.0))
        baseline = self._write(tmp_path, "baseline.json", _report(1.0))
        assert main([current, baseline]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        current = self._write(tmp_path, "current.json", _report(3.0))
        baseline = self._write(tmp_path, "baseline.json", _report(1.0))
        assert main([current, baseline, "--threshold", "3.5"]) == 0
        assert main([current, baseline, "--threshold", "2.0"]) == 1

    def test_zero_overlap_fails_cli(self, tmp_path, capsys):
        """Schema drift (no comparable phases) must fail, not no-op."""
        current = self._write(tmp_path, "current.json", _report(1.0, name="a"))
        baseline = self._write(
            tmp_path, "baseline.json", {"benchmarks": []}
        )
        assert main([current, baseline]) == 1
        assert "no comparable" in capsys.readouterr().out

    def test_real_baseline_compares_to_itself(self):
        """The committed BENCH_suite.json passes against itself."""
        from pathlib import Path

        baseline = json.loads(
            (Path(__file__).parent.parent / "BENCH_suite.json").read_text()
        )
        failures, n_compared = compare_reports(baseline, baseline)
        assert failures == []
        assert n_compared > 0


@pytest.mark.parametrize("bad", [{}, {"benchmarks": []}])
def test_empty_reports_compare_empty(bad):
    assert compare_reports(bad, bad) == ([], 0)


def _keys(node):
    """Every dict key anywhere in a JSON-like report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from _keys(item)


class TestPerfHarness:
    """The real harness on one kernel: the artifact it writes is one the
    gate can read, phase for phase."""

    @pytest.fixture(scope="class")
    def report(self, cpu):
        from repro.bench.perf import run_perf_suite

        return run_perf_suite(["mult"], cpu=cpu)

    def test_no_scalar_legs(self, report):
        assert report["schema"] == 5
        keys = set(_keys(report))
        assert not {key for key in keys if key.startswith("scalar")}
        assert not {key for key in keys if key.startswith("bitplane")}
        assert not keys & {"total_s", "speedup"}

    def test_gate_compares_every_phase(self, report):
        failures, n_compared = compare_reports(report, report)
        assert failures == []
        # every (row, seconds) phase of the one benchmark + the stressmark
        assert n_compared == len(PHASES) + 1

"""The stale-cache fix: versioned keys, fingerprint misses, escape hatch.

The seed's disk cache keyed entries by bare names (``xbased_FFT``), so
edits to the power model or the netlist silently reused stale pickles.
Keys now embed a fingerprint of the cache schema, the netlist, and the
power-model characterization; these tests pin that behaviour.
"""

import pickle

import pytest

from repro.bench import runner


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the runner at an empty cache dir; restore globals after."""
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    yield tmp_path / "cache"
    for key in list(runner._memory_cache):
        if key.startswith("unit_"):
            runner._memory_cache.pop(key)


class TestVersionedKeys:
    def test_disk_names_carry_fingerprint(self, isolated_cache):
        runner._cached("unit_fp_key", lambda: 1)
        runner._memory_cache.pop("unit_fp_key")
        files = list(isolated_cache.glob("*.pkl"))
        assert files == [
            isolated_cache / f"unit_fp_key-{runner.cache_fingerprint()}.pkl"
        ]

    def test_fingerprint_change_misses_cache(self, isolated_cache, monkeypatch):
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return calls["n"]

        assert runner._cached("unit_stale_key", compute) == 1
        # Simulate an edit to the PowerModel / netlist: the fingerprint
        # changes, so the stale pickle must NOT be reused.
        runner._memory_cache.pop("unit_stale_key")
        monkeypatch.setattr(runner, "_fingerprint", "deadbeefdeadbeef")
        assert runner._cached("unit_stale_key", compute) == 2
        assert calls["n"] == 2
        # ... and the stale file is still there, untouched, under its key.
        assert len(list(isolated_cache.glob("unit_stale_key-*.pkl"))) == 2
        runner._memory_cache.pop("unit_stale_key")

    def test_model_parameters_feed_fingerprint(self, monkeypatch):
        baseline = runner.cache_fingerprint()
        model = runner.shared_model()
        original_clock = model.clock_ns
        monkeypatch.setattr(model, "clock_ns", original_clock * 2)
        monkeypatch.setattr(runner, "_fingerprint", None)
        changed = runner.cache_fingerprint()
        assert changed != baseline
        monkeypatch.setattr(model, "clock_ns", original_clock)
        monkeypatch.setattr(runner, "_fingerprint", None)
        assert runner.cache_fingerprint() == baseline  # restored => stable

    def test_schema_bump_misses_older_pickles(self, isolated_cache, monkeypatch):
        """Schema 3 (exact integer pricing, result floats moved in the
        last ulps): a pickle published under the schema-2 fingerprint —
        which the service store shares — must miss, not be served."""
        assert runner.CACHE_SCHEMA_VERSION == 3
        monkeypatch.setattr(runner, "CACHE_SCHEMA_VERSION", 2)
        monkeypatch.setattr(runner, "_fingerprint", None)
        old = runner.cache_fingerprint()
        assert runner._cached("unit_schema_key", lambda: "schema 2") == "schema 2"
        runner._memory_cache.pop("unit_schema_key")
        monkeypatch.setattr(runner, "CACHE_SCHEMA_VERSION", 3)
        monkeypatch.setattr(runner, "_fingerprint", None)
        assert runner.cache_fingerprint() != old
        assert runner._cached("unit_schema_key", lambda: "schema 3") == "schema 3"
        # both versions' pickles sit side by side under their own names
        names = {p.name for p in isolated_cache.glob("unit_schema_key-*.pkl")}
        assert names == {
            f"unit_schema_key-{fp}.pkl"
            for fp in (old, runner.cache_fingerprint())
        }
        runner._memory_cache.pop("unit_schema_key")

    def test_benchmark_token_tracks_source_and_budgets(self):
        benchmark = runner.get_benchmark("FFT")
        token = runner._bench_token(benchmark)
        from dataclasses import replace

        edited = replace(benchmark, source=benchmark.source + "\n; tweak")
        assert runner._bench_token(edited) != token
        rebudgeted = replace(benchmark, max_segments=benchmark.max_segments * 2)
        assert runner._bench_token(rebudgeted) != token


class TestNoCacheEscapeHatch:
    def test_env_var_bypasses_disk(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not runner.cache_enabled()
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return calls["n"]

        assert runner._cached("unit_nocache_key", compute) == 1
        runner._memory_cache.pop("unit_nocache_key")
        assert runner._cached("unit_nocache_key", compute) == 2
        assert not isolated_cache.exists()
        runner._memory_cache.pop("unit_nocache_key")

    def test_cache_enabled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert runner.cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert runner.cache_enabled()

    def test_stale_unversioned_pickles_are_ignored(self, isolated_cache):
        """A seed-style bare-key pickle must never be loaded again."""
        isolated_cache.mkdir(parents=True)
        with (isolated_cache / "unit_legacy_key.pkl").open("wb") as handle:
            pickle.dump("stale-value", handle)
        value = runner._cached("unit_legacy_key", lambda: "fresh-value")
        assert value == "fresh-value"
        runner._memory_cache.pop("unit_legacy_key")


class TestParallelRunner:
    def test_run_suite_sequential_and_order(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        results = runner.run_suite(["div", "mult"], jobs=1)
        assert [r.name for r in results] == ["div", "mult"]
        assert all(r.peak_power_mw > 0 for r in results)

    def test_run_suite_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError, match="available"):
            runner.run_suite(["nosuchbench"], jobs=2)

    def test_sequential_run_does_not_leak_knobs(self, isolated_cache,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        runner.run_suite(["mult"], jobs=1, no_cache=True, engine="native")
        import os

        assert "REPRO_NO_CACHE" not in os.environ
        assert "REPRO_ENGINE" not in os.environ
        assert runner.cache_enabled()

    def test_duplicate_names_computed_once(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        results = runner.run_suite(["mult", "mult"], jobs=1)
        assert [r.name for r in results] == ["mult", "mult"]
        assert results[0] is results[1]


class TestKnobParsing:
    def test_batch_width_reads_no_environment(self, monkeypatch):
        """The exploration width is a per-engine constant: the variable
        that once overrode it is ignored, malformed or not."""
        from repro.core.activity import default_batch_size

        for raw in ("1x", "16"):
            monkeypatch.setenv("REPRO_BATCH_SIZE", raw)
            assert default_batch_size() == 8
            assert default_batch_size("native") == 32

    def test_atomic_cache_write_leaves_no_scratch(self, isolated_cache):
        runner._cached("unit_atomic_key", lambda: [1, 2, 3])
        runner._memory_cache.pop("unit_atomic_key")
        assert not list(isolated_cache.glob("*.tmp*"))
        assert runner._cached("unit_atomic_key", lambda: "recomputed") == [1, 2, 3]
        runner._memory_cache.pop("unit_atomic_key")

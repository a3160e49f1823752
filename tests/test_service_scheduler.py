"""Scheduler: in-flight dedupe, priorities, cancellation, core budget.

The fast tests drive the scheduler with gated fake executors so
ordering is deterministic; the integration class runs the real
store-backed analyze pipeline and pins the PR's acceptance criterion —
two concurrent submissions of one benchmark produce exactly one engine
run, bit-identical to ``analyze()`` called directly, and a store hit on
resubmission.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobScheduler,
    job_signature,
)


class GatedExecutor:
    """Counts calls; optionally blocks until released."""

    def __init__(self, gated: bool = False):
        self.calls = []
        self.lock = threading.Lock()
        self.release = threading.Event()
        self.entered = threading.Event()
        if not gated:
            self.release.set()

    def __call__(self, params, ctx):
        with self.lock:
            self.calls.append(dict(params))
        self.entered.set()
        ctx.emit("working", str(params))
        assert self.release.wait(30), "executor never released"
        return {"echo": dict(params)}


@pytest.fixture
def gated():
    return GatedExecutor(gated=True)


def make_scheduler(executor, **kwargs):
    kwargs.setdefault("max_concurrent", 1)
    return JobScheduler(executors={"fake": executor}, **kwargs)


class TestDedupe:
    def test_identical_inflight_requests_share_one_job(self, gated):
        scheduler = make_scheduler(gated)
        try:
            first, deduped_first = scheduler.submit("fake", {"x": 1})
            assert not deduped_first
            assert gated.entered.wait(10)  # first job is now running
            second, deduped_second = scheduler.submit("fake", {"x": 1})
            assert deduped_second
            assert second is first
            assert first.merged == 1
            gated.release.set()
            assert scheduler.wait(first.id, timeout=30)
            assert first.state == DONE
            assert first.result == {"echo": {"x": 1}}
            assert len(gated.calls) == 1  # ONE engine run for two clients
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_signature_ignores_priority_and_key_order(self):
        assert job_signature("analyze", {"a": 1, "b": 2}) == job_signature(
            "analyze", {"b": 2, "a": 1}
        )
        assert job_signature("analyze", {"a": 1}) != job_signature(
            "profile", {"a": 1}
        )

    def test_different_params_do_not_dedupe(self, gated):
        scheduler = make_scheduler(gated)
        try:
            first, _ = scheduler.submit("fake", {"x": 1})
            second, deduped = scheduler.submit("fake", {"x": 2})
            assert not deduped
            assert second is not first
            gated.release.set()
            assert scheduler.wait(first.id, timeout=30)
            assert scheduler.wait(second.id, timeout=30)
            assert len(gated.calls) == 2
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_completed_jobs_do_not_dedupe(self):
        executor = GatedExecutor()
        scheduler = make_scheduler(executor)
        try:
            first, _ = scheduler.submit("fake", {"x": 1})
            assert scheduler.wait(first.id, timeout=30)
            second, deduped = scheduler.submit("fake", {"x": 1})
            assert not deduped
            assert second.id != first.id
            assert scheduler.wait(second.id, timeout=30)
            # a resubmission recomputes (or, in the real executors, hits
            # the artifact store) instead of reusing the dead job object
            assert len(executor.calls) == 2
        finally:
            scheduler.shutdown()

    def test_unknown_kind_is_rejected(self):
        scheduler = make_scheduler(GatedExecutor())
        try:
            with pytest.raises(KeyError, match="valid kinds"):
                scheduler.submit("nope", {})
        finally:
            scheduler.shutdown()


class TestPriorityAndEvents:
    def test_higher_priority_runs_first(self, gated):
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            low, _ = scheduler.submit("fake", {"job": "low"}, priority=0)
            high, _ = scheduler.submit("fake", {"job": "high"}, priority=5)
            gated.release.set()
            for job in (blocker, low, high):
                assert scheduler.wait(job.id, timeout=30)
            order = [call["job"] for call in gated.calls]
            assert order == ["blocker", "high", "low"]
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_deduped_submission_raises_shared_job_priority(self, gated):
        """A high-priority duplicate transfers its urgency to the shared
        queued job instead of silently losing it."""
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            low, _ = scheduler.submit("fake", {"job": "low"}, priority=0)
            rival, _ = scheduler.submit("fake", {"job": "rival"}, priority=5)
            joined, deduped = scheduler.submit(
                "fake", {"job": "low"}, priority=10
            )
            assert deduped and joined is low
            assert low.priority == 10
            gated.release.set()
            for job in (blocker, low, rival):
                assert scheduler.wait(job.id, timeout=30)
            order = [call["job"] for call in gated.calls]
            assert order == ["blocker", "low", "rival"]
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_stressmark_defaults_normalize_into_one_signature(self):
        """Omitted vs explicitly-defaulted GA knobs describe the same
        engine run and must dedupe onto one job."""
        from repro.service.scheduler import normalize_params

        assert normalize_params("stressmark", {"objective": "peak"}) == (
            normalize_params(
                "stressmark",
                {"objective": "peak", "islands": 1, "migration_interval": 2},
            )
        )
        gated = GatedExecutor(gated=True)
        scheduler = JobScheduler(
            max_concurrent=1, executors={"stressmark": gated}
        )
        try:
            first, _ = scheduler.submit("stressmark", {"objective": "peak"})
            assert gated.entered.wait(10)
            second, deduped = scheduler.submit(
                "stressmark",
                {"objective": "peak", "islands": 1, "migration_interval": 2},
            )
            assert deduped and second is first
            gated.release.set()
            assert scheduler.wait(first.id, timeout=30)
            assert len(gated.calls) == 1
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_stressmark_knobs_validated_at_submit(self):
        from repro.service.scheduler import MAX_ISLANDS, normalize_params

        accepted = normalize_params(
            "stressmark",
            {"objective": "average", "islands": MAX_ISLANDS,
             "migration_interval": 1},
        )
        assert accepted["islands"] == 64
        for params in (
            {"islands": "4"}, {"islands": 2.5}, {"islands": True},
            {"islands": 0}, {"islands": MAX_ISLANDS + 1},
            {"migration_interval": False}, {"migration_interval": 0},
            {"objective": "both"}, {"objective": None},
        ):
            with pytest.raises(ValueError):
                normalize_params("stressmark", params)

    def test_fifo_within_equal_priority(self, gated):
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            for index in range(3):
                scheduler.submit("fake", {"job": index}, priority=1)
            gated.release.set()
            deadline = time.monotonic() + 30
            while len(gated.calls) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [c["job"] for c in gated.calls[1:]] == [0, 1, 2]
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_event_stream_is_incremental(self):
        scheduler = make_scheduler(GatedExecutor())
        try:
            job, _ = scheduler.submit("fake", {"x": 1})
            assert scheduler.wait(job.id, timeout=30)
            events = scheduler.events_since(job.id)
            stages = [event["stage"] for event in events]
            assert stages[0] == "queued"
            assert "started" in stages and "working" in stages
            assert stages[-1] == "finished"
            cursor = events[2]["seq"]
            tail = scheduler.events_since(job.id, since=cursor)
            assert [event["seq"] for event in tail] == [
                event["seq"] for event in events[2:]
            ]
        finally:
            scheduler.shutdown()

    def test_failed_job_reports_error(self):
        def boom(params, ctx):
            raise ValueError("engine exploded")

        scheduler = JobScheduler(max_concurrent=1, executors={"fake": boom})
        try:
            job, _ = scheduler.submit("fake", {})
            assert scheduler.wait(job.id, timeout=30)
            assert job.state == FAILED
            assert "engine exploded" in job.error
            # the failure released the slot: the scheduler still works
            job2, _ = scheduler.submit("fake", {"retry": 1})
            assert scheduler.wait(job2.id, timeout=30)
        finally:
            scheduler.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self, gated):
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            queued, _ = scheduler.submit("fake", {"job": "victim"})
            assert queued.state == QUEUED
            assert scheduler.cancel(queued.id) is True
            assert queued.state == CANCELLED
            gated.release.set()
            assert scheduler.wait(blocker.id, timeout=30)
            assert all(c["job"] != "victim" for c in gated.calls)
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_cancel_running_is_best_effort(self, gated):
        scheduler = make_scheduler(gated)
        try:
            job, _ = scheduler.submit("fake", {})
            assert gated.entered.wait(10)
            assert scheduler.cancel(job.id) is False
            assert job.cancel_requested
            gated.release.set()
            assert scheduler.wait(job.id, timeout=30)
            assert job.state == DONE  # the run itself completed
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_cancelled_job_frees_the_dedupe_slot(self, gated):
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            queued, _ = scheduler.submit("fake", {"job": "victim"})
            scheduler.cancel(queued.id)
            again, deduped = scheduler.submit("fake", {"job": "victim"})
            assert not deduped and again is not queued
            gated.release.set()
            assert scheduler.wait(again.id, timeout=30)
            assert again.state == DONE
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_cancel_spares_deduped_waiters(self, gated):
        """One waiter's cancel must not kill another client's identical
        deduped request — it only peels that waiter off."""
        scheduler = make_scheduler(gated, max_concurrent=1)
        try:
            blocker, _ = scheduler.submit("fake", {"job": "blocker"})
            assert gated.entered.wait(10)
            shared, _ = scheduler.submit("fake", {"job": "shared"})
            joined, deduped = scheduler.submit("fake", {"job": "shared"})
            assert deduped and joined is shared
            assert scheduler.cancel(shared.id) is False  # peel one waiter
            assert shared.state == QUEUED  # the other client's job lives
            assert scheduler.cancel(shared.id) is True  # last one cancels
            assert shared.state == CANCELLED
            gated.release.set()
            assert scheduler.wait(blocker.id, timeout=30)
        finally:
            gated.release.set()
            scheduler.shutdown()

    def test_cancel_unknown_job_raises(self):
        scheduler = make_scheduler(GatedExecutor())
        try:
            with pytest.raises(KeyError):
                scheduler.cancel("job-99999")
        finally:
            scheduler.shutdown()

    def test_finished_jobs_are_evicted_beyond_the_cap(self):
        scheduler = JobScheduler(
            max_concurrent=1, executors={"fake": GatedExecutor()},
            max_finished_jobs=3,
        )
        try:
            jobs = []
            for index in range(6):
                job, _ = scheduler.submit("fake", {"n": index})
                assert scheduler.wait(job.id, timeout=30)
                jobs.append(job)
            retained = {j.id for j in scheduler.jobs()}
            assert {j.id for j in jobs[-3:]} <= retained
            assert len(retained) == 3  # the long-lived server stays bounded
            with pytest.raises(KeyError):
                scheduler.get(jobs[0].id)
        finally:
            scheduler.shutdown()

    def test_shutdown_cancels_queue_and_rejects_submits(self, gated):
        scheduler = make_scheduler(gated, max_concurrent=1)
        running, _ = scheduler.submit("fake", {"job": "blocker"})
        assert gated.entered.wait(10)
        queued, _ = scheduler.submit("fake", {"job": "stranded"})
        gated.release.set()
        scheduler.shutdown()
        assert queued.state == CANCELLED
        with pytest.raises(RuntimeError):
            scheduler.submit("fake", {})


class TestCoreBudget:
    def test_default_slots_are_the_core_count(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 8)
        scheduler = JobScheduler(executors={"fake": GatedExecutor()})
        try:
            assert scheduler.max_concurrent == 8
            assert scheduler.config()["max_concurrent"] == 8
        finally:
            scheduler.shutdown()

    def test_derived_scheduler_budget_never_oversubscribes(self):
        import os

        scheduler = JobScheduler(executors={"fake": GatedExecutor()})
        try:
            assert scheduler.max_concurrent == (os.cpu_count() or 1)
        finally:
            scheduler.shutdown()

    def test_explicit_slots_are_honored(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 4)
        for max_jobs in (1, 2, 9):
            scheduler = JobScheduler(
                max_concurrent=max_jobs, executors={"fake": GatedExecutor()}
            )
            try:
                assert scheduler.max_concurrent == max_jobs
            finally:
                scheduler.shutdown()

    def test_invalid_max_concurrent_rejected(self):
        with pytest.raises(ValueError):
            JobScheduler(max_concurrent=0, executors={})


class TestRealPipelineIntegration:
    """Acceptance pin: dedupe + bit-identity + store hit on the real
    store-backed analyze executors."""

    @pytest.fixture
    def isolated_runner(self, tmp_path, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(runner, "_store", None)
        for key in list(runner._memory_cache):
            runner._memory_cache.pop(key)
        yield runner
        for key in list(runner._memory_cache):
            runner._memory_cache.pop(key)
        runner._store = None

    def test_concurrent_submits_one_engine_run_bit_identical(
        self, isolated_runner, monkeypatch
    ):
        runner = isolated_runner
        engine_runs = []
        real_analyze = runner.analyze

        def counting_analyze(*args, **kwargs):
            engine_runs.append(kwargs)
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(runner, "analyze", counting_analyze)
        scheduler = JobScheduler(max_concurrent=2)
        try:
            first, _ = scheduler.submit("analyze", {"benchmark": "mult"})
            second, deduped = scheduler.submit(
                "analyze", {"benchmark": "mult"}
            )
            assert deduped and second is first
            assert scheduler.wait(first.id, timeout=120)
            assert first.state == DONE, first.error
            assert len(engine_runs) == 1  # one run served both clients
        finally:
            scheduler.shutdown()

        # bit-identical to analyze() called directly (same floats)
        direct = real_analyze(
            runner.shared_cpu(),
            runner.get_benchmark("mult").program(),
            runner.shared_model(),
            **runner.get_benchmark("mult").analysis_kwargs(),
        )
        result = first.result
        assert result["peak_power_mw"] == direct.peak_power_mw
        assert result["peak_energy_pj"] == direct.peak_energy_pj
        assert result["npe_pj_per_cycle"] == direct.npe_pj_per_cycle
        assert result["path_cycles"] == direct.peak_energy.path_cycles
        assert result["n_segments"] == len(direct.tree.segments)
        # ... and to the service's JSON summary of that direct report
        payload = direct.to_payload()
        assert payload["peak_power_mw"] == result["peak_power_mw"]

        # resubmission resolves through the store, not the engine
        runner._memory_cache.clear()
        scheduler2 = JobScheduler(max_concurrent=1)
        try:
            third, deduped = scheduler2.submit(
                "analyze", {"benchmark": "mult"}
            )
            assert not deduped
            assert scheduler2.wait(third.id, timeout=120)
            assert third.state == DONE, third.error
            assert third.result == result
        finally:
            scheduler2.shutdown()
        assert len(engine_runs) == 1  # still one engine run, ever
        assert runner.artifact_store().counters.hits_disk >= 1

    def test_unknown_benchmark_fails_with_valid_names(self, isolated_runner):
        scheduler = JobScheduler(max_concurrent=1)
        try:
            job, _ = scheduler.submit("analyze", {"benchmark": "nope"})
            assert scheduler.wait(job.id, timeout=30)
            assert job.state == FAILED
            assert "valid names" in job.error and "mult" in job.error
        finally:
            scheduler.shutdown()

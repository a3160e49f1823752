"""HTTP API + client: the service answers sizing queries over the wire.

Spins a real ``ThreadingHTTPServer`` on an ephemeral port, talks to it
through :class:`repro.service.client.ServiceClient`, and checks the
full loop: submit → dedupe → result (golden numbers) → store hit, plus
the error surface (unknown benchmarks list valid names, missing jobs
404, store endpoints round-trip).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import JobScheduler
from repro.service.server import AnalysisService, make_server

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_suite.json").read_text()
)


@pytest.fixture
def isolated_runner(tmp_path, monkeypatch):
    from repro.bench import runner

    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(runner, "_store", None)
    for key in list(runner._memory_cache):
        runner._memory_cache.pop(key)
    yield runner
    for key in list(runner._memory_cache):
        runner._memory_cache.pop(key)
    runner._store = None


@pytest.fixture
def client(isolated_runner):
    service = AnalysisService(scheduler=JobScheduler(max_concurrent=2))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["max_concurrent"] == 2
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }

    def test_benchmark_registry(self, client):
        names = {b["name"] for b in client.benchmarks()}
        assert {"mult", "FFT", "Viterbi"} <= names

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-99999")
        assert err.value.status == 404

    def test_unknown_benchmark_400_lists_names(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("analyze", benchmark="nosuch")
        assert err.value.status == 400
        assert "valid names" in str(err.value)
        assert "mult" in err.value.payload["error"]

    def test_invalid_knob_values_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("stressmark", objective="peak", islands=0)
        assert err.value.status == 400
        assert "islands" in err.value.payload["error"]

    def test_malformed_stressmark_knobs_400(self, client):
        """Wrong types and out-of-range GA knobs fail the submit with a
        400 naming the knob, and no job is created."""
        bad = [
            ({"islands": "4"}, "islands"),
            ({"islands": 2.5}, "islands"),
            ({"islands": True}, "islands"),
            ({"islands": 65}, "islands"),
            ({"islands": 10**9}, "islands"),
            ({"migration_interval": 0}, "migration_interval"),
            ({"migration_interval": "2"}, "migration_interval"),
            ({"objective": "both"}, "objective"),
        ]
        for params, knob in bad:
            with pytest.raises(ServiceError) as err:
                client.submit("stressmark", **params)
            assert err.value.status == 400, params
            assert knob in err.value.payload["error"], params
        assert client.jobs() == []

    def test_analysis_jobs_take_no_engine_400(self, client):
        """The engine follows from the host: an analyze or profile job
        that names one, valid or not, fails the submit with a 400 and no
        job is created."""
        for kind in ("analyze", "profile"):
            for engine in ("native", "reference", "bogus"):
                with pytest.raises(ServiceError) as err:
                    client.submit(kind, benchmark="mult", engine=engine)
                assert err.value.status == 400, (kind, engine)
                assert "engine" in err.value.payload["error"]
        assert client.jobs() == []

    def test_unknown_kind_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("frobnicate")
        assert err.value.status == 400
        assert "valid kinds" in err.value.payload["error"]

    def test_malformed_query_numbers_400(self, client):
        job = client.submit("analyze", benchmark="mult")
        for path in (
            f"/v1/jobs/{job['job_id']}/result?timeout=abc",
            f"/v1/jobs/{job['job_id']}/events?since=xyz",
        ):
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 400  # client fault, not a 500
        client.result(job["job_id"], timeout=120)

    def test_bad_json_body_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400


class TestAnalysisQueries:
    def test_submit_wait_result_matches_golden_and_direct(self, client,
                                                          isolated_runner):
        runner = isolated_runner
        job = client.submit("analyze", benchmark="mult")
        assert job["state"] in ("queued", "running")
        payload = client.result(job["job_id"], timeout=120)
        assert payload["state"] == "done"
        result = payload["result"]
        assert result["peak_power_mw"] == pytest.approx(
            GOLDEN["mult"]["peak_power_mw"], rel=1e-9
        )
        assert result["npe_pj_per_cycle"] == pytest.approx(
            GOLDEN["mult"]["npe_pj_per_cycle"], rel=1e-9
        )
        # bit-identical (not approx) to the engine called directly: JSON
        # round-trips IEEE doubles exactly
        direct = runner.x_based("mult")
        assert result["peak_power_mw"] == direct.peak_power_mw
        assert result["peak_energy_pj"] == direct.peak_energy_pj
        assert result["path_cycles"] == direct.path_cycles

    def test_concurrent_duplicate_submits_dedupe(self, client):
        first = client.submit("analyze", benchmark="mult")
        second = client.submit("analyze", benchmark="mult")
        # mult takes long enough that the duplicate lands in flight
        assert second["job_id"] == first["job_id"]
        assert second["deduped"] is True
        a = client.result(first["job_id"], timeout=120)
        assert a["state"] == "done"
        assert a["merged"] == 1

    def test_resubmission_hits_the_store(self, client, isolated_runner):
        runner = isolated_runner
        first = client.result(
            client.submit("analyze", benchmark="mult")["job_id"], timeout=120
        )
        # drop the in-process memory layer so the second job must go to
        # disk — the store hit the acceptance criterion asks for
        runner._memory_cache.clear()
        second_job = client.submit("analyze", benchmark="mult")
        assert second_job["job_id"] != first["job_id"]
        second = client.result(second_job["job_id"], timeout=120)
        assert second["result"] == first["result"]
        stats = client.store_stats()
        assert stats["counters"]["hits_disk"] >= 1
        assert stats["counters"]["writes"] == 1  # one engine run, ever
        assert stats["entries"]["n_entries"] == 1

    def test_events_stream(self, client):
        job = client.submit("analyze", benchmark="mult")
        client.result(job["job_id"], timeout=120)
        stream = client.events(job["job_id"])
        stages = [event["stage"] for event in stream["events"]]
        assert stages[0] == "queued"
        assert "started" in stages and "resolve" in stages
        assert stages[-1] == "finished"
        tail = client.events(job["job_id"], since=stream["next"])
        assert tail["events"] == []

    def test_cancel_endpoint(self, client):
        job = client.submit("analyze", benchmark="mult")
        response = client.cancel(job["job_id"])
        assert response["job_id"] == job["job_id"]
        assert response["state"] in ("queued", "running", "done", "cancelled")
        if response["cancelled"]:
            with pytest.raises(ServiceError) as err:
                client.result(job["job_id"], timeout=30)
            assert err.value.status == 409

    def test_job_listing(self, client):
        job = client.submit("analyze", benchmark="mult")
        client.result(job["job_id"], timeout=120)
        listed = {j["job_id"]: j for j in client.jobs()}
        assert job["job_id"] in listed
        assert "result" not in listed[job["job_id"]]  # results are elided


class TestStoreEndpoints:
    def test_stats_shape(self, client):
        stats = client.store_stats()
        assert set(stats) == {"root", "entries", "counters"}
        assert stats["entries"]["n_entries"] == 0

    def test_gc_roundtrip(self, client, isolated_runner):
        client.result(
            client.submit("analyze", benchmark="mult")["job_id"], timeout=120
        )
        report = client.store_gc(max_mb=0)
        assert report["n_removed"] == 1  # the cap evicted the artifact
        assert client.store_stats()["entries"]["n_entries"] == 0

    def test_gc_rejects_bad_cap(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/store/gc", {"max_mb": "huge"})
        assert err.value.status == 400

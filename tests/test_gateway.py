"""The multi-tenant upload gateway: POST /v1/programs end to end.

Validation rejects bad uploads *before* the scheduler (no journal or
job residue), accepted source reproduces ``repro analyze`` bit for
bit, analysis-time failures surface as structured 422s (never worker
crashes), and the tenancy layer enforces authn, rate limits, job
quotas, namespacing, and result TTLs over a real HTTP server.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import gateway
from repro.service.client import (
    JobFailedError,
    RateLimitedError,
    ServiceClient,
    ServiceError,
)
from repro.service.journal import JobJournal
from repro.service.scheduler import JobScheduler
from repro.service.server import AnalysisService, make_server
from repro.tenancy import Keyring, TenantQuotas

MULT_SOURCE = None  # populated lazily from the registry

#: assembles, then spins forever mutating state — only the analysis
#: cycle budget can stop it
SPIN_SOURCE = """
        .equ WDTCTL, 0x0120
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
loop:   inc r4
        jmp loop
"""

#: a computed jump through input data: the PC goes X outside a branch
JUMP_THROUGH_INPUT_SOURCE = """
        .org 0xF000
start:  mov #inp, r4
        mov @r4, r5
        mov r5, pc
        .org 0x0240
inp:    .input 1
"""

BAD_SOURCE = "start: frobnicate r4, r5\n"

BYTE_MODE_SOURCE = """
        .org 0xF000
start:  mov.b r4, r5
end:    jmp end
"""


def _mult_source() -> str:
    global MULT_SOURCE
    if MULT_SOURCE is None:
        from repro.bench import programs

        MULT_SOURCE = programs.MULT
    return MULT_SOURCE


# -- validation unit tests (no server) ---------------------------------


class TestValidateUpload:
    def test_accepts_registry_source(self):
        params = gateway.validate_upload(
            {"source": _mult_source(), "name": "mult"}, 256 * 1024
        )
        assert params["name"] == "mult"
        assert params["program_id"] == gateway.program_id(_mult_source())
        assert params["max_cycles"] == gateway.DEFAULT_MAX_CYCLES
        assert params["max_segments"] == gateway.DEFAULT_MAX_SEGMENTS
        assert params["loop_bound"] is None

    def test_non_dict_body_400(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload(["nope"], 1024)
        assert err.value.status == 400

    def test_unknown_fields_400(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload(
                {"source": "x", "exploit": 1}, 1024
            )
        assert err.value.status == 400
        assert "exploit" in str(err.value)

    def test_missing_or_empty_source_400(self):
        for body in ({}, {"source": ""}, {"source": "   "}, {"source": 3}):
            with pytest.raises(gateway.UploadError) as err:
                gateway.validate_upload(body, 1024)
            assert err.value.status == 400

    def test_oversized_source_413_names_the_limit(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload({"source": "x" * 2048}, 1024)
        assert err.value.status == 413
        assert err.value.code == "source_too_large"
        assert err.value.extra["limit_bytes"] == 1024
        assert err.value.extra["size_bytes"] == 2048

    def test_tenant_limit_never_exceeds_the_server_cap(self):
        huge = "x" * (gateway.MAX_SOURCE_BYTES_CAP + 1)
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload(
                {"source": huge}, 10 * gateway.MAX_SOURCE_BYTES_CAP
            )
        assert err.value.status == 413
        assert (
            err.value.extra["limit_bytes"] == gateway.MAX_SOURCE_BYTES_CAP
        )

    def test_bad_name_400(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload(
                {"source": "x", "name": "../escape"}, 1024
            )
        assert err.value.status == 400
        assert err.value.extra["field"] == "name"

    def test_bad_budget_knobs_400(self):
        for field in ("loop_bound", "max_cycles", "max_segments"):
            for value in (0, -1, "ten", True):
                with pytest.raises(gateway.UploadError) as err:
                    gateway.validate_upload(
                        {"source": "x", field: value}, 1024
                    )
                assert err.value.status == 400

    def test_budgets_cannot_exceed_the_defaults(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload(
                {
                    "source": "x",
                    "max_cycles": gateway.DEFAULT_MAX_CYCLES + 1,
                },
                1024,
            )
        assert err.value.status == 400

    def test_non_assembling_source_422_with_line(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload({"source": BAD_SOURCE}, 1024)
        assert err.value.status == 422
        assert err.value.code == "assembly_error"
        assert err.value.extra["line"] == 1
        assert "frobnicate" in err.value.extra["source_line"]

    def test_byte_mode_source_422(self):
        with pytest.raises(gateway.UploadError) as err:
            gateway.validate_upload({"source": BYTE_MODE_SOURCE}, 1024)
        assert err.value.status == 422
        assert err.value.code == "assembly_error"
        assert "byte-mode" in str(err.value)


class TestNormalizeParams:
    def test_forged_program_id_is_recomputed(self):
        params = gateway.normalize_upload_params(
            {"source": _mult_source(), "program_id": "pdeadbeef"}
        )
        assert params["program_id"] == gateway.program_id(_mult_source())

    def test_oversized_budgets_are_clamped(self):
        params = gateway.normalize_upload_params(
            {"source": "x", "max_cycles": 10**9, "max_segments": 10**9}
        )
        assert params["max_cycles"] == gateway.DEFAULT_MAX_CYCLES
        assert params["max_segments"] == gateway.DEFAULT_MAX_SEGMENTS

    def test_tenant_and_ttl_survive_normalization(self):
        """Only params cross the process boundary to workers, so the
        server-injected namespacing fields must round-trip."""
        params = gateway.normalize_upload_params(
            {"source": "x", "tenant": "acme", "ttl_s": 60}
        )
        assert params["tenant"] == "acme"
        assert params["ttl_s"] == 60.0

    def test_garbage_params_raise_value_error(self):
        with pytest.raises(ValueError):
            gateway.normalize_upload_params({"source": ""})
        with pytest.raises(ValueError):
            gateway.normalize_upload_params(
                {"source": "x", "name": "bad name"}
            )


class TestJobErrorCode:
    def test_prefixed_errors_map_to_codes(self):
        assert (
            gateway.job_error_code(
                "RuntimeError: cycle_budget_exceeded: spin: exceeded"
            )
            == "cycle_budget_exceeded"
        )
        assert (
            gateway.job_error_code("assembly_error: line 3")
            == "assembly_error"
        )

    def test_plain_failures_have_no_code(self):
        assert gateway.job_error_code(None) is None
        assert gateway.job_error_code("worker crashed (signal 9)") is None
        assert gateway.job_error_code("deadline exceeded") is None


# -- HTTP fixtures ------------------------------------------------------


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


def _serve(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture
def open_client(isolated_runner):
    """An un-tenanted server: the gateway works without a keyring."""
    service = AnalysisService(scheduler=JobScheduler(max_concurrent=2))
    server, thread = _serve(service)
    try:
        yield ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
        ), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


@pytest.fixture
def tenanted(isolated_runner, tmp_path):
    """A 2-tenant server (alice + an admin) plus their keys."""
    keyring = Keyring(tmp_path / "keyring.json")
    _, alice_key = keyring.add(
        "alice",
        quotas=TenantQuotas(
            requests_per_min=6000.0, burst=100, max_concurrent_jobs=2,
            max_source_bytes=64 * 1024, result_ttl_s=3600.0,
        ),
    )
    _, admin_key = keyring.add("root", admin=True)
    service = AnalysisService(
        scheduler=JobScheduler(max_concurrent=2), keyring=keyring
    )
    server, thread = _serve(service)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield {
            "service": service,
            "keyring": keyring,
            "base": base,
            "alice": ServiceClient(base, timeout=30.0, api_key=alice_key),
            "admin": ServiceClient(base, timeout=30.0, api_key=admin_key),
            "anon": ServiceClient(base, timeout=30.0),
        }
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


# -- open-server gateway behavior --------------------------------------


class TestUploadPipeline:
    def test_upload_matches_local_analyze_bit_for_bit(self, open_client):
        from repro.asm import assemble
        from repro.bench import runner
        from repro.core import analyze

        client, service = open_client
        job = client.upload(_mult_source(), name="mult")
        assert job["program_id"] == gateway.program_id(_mult_source())
        payload = client.result(job["job_id"], timeout=120)
        result = payload["result"]
        local = analyze(
            runner.shared_cpu(),
            assemble(_mult_source(), "mult"),
            runner.shared_model(),
        ).to_payload()
        for field, expected in local.items():
            assert result[field] == expected  # bit-identical, no tolerance
        assert result["cached"] is False
        # progress events streamed over the existing events API
        events = client.events(job["job_id"])["events"]
        stages = {event["stage"] for event in events}
        assert "resolve" in stages
        assert any(event["seq"] >= 0 for event in events)

        # the bound is addressable by program id afterwards
        stored = client.program(job["program_id"])
        assert stored["peak_power_mw"] == local["peak_power_mw"]

        # re-uploading identical source serves the stored artifact
        again = client.upload(_mult_source(), name="mult")
        payload = client.result(again["job_id"], timeout=120)
        assert payload["result"]["cached"] is True
        assert (
            payload["result"]["peak_power_mw"] == local["peak_power_mw"]
        )

    def test_inflight_duplicate_upload_dedupes(self, open_client):
        client, service = open_client
        first = client.upload(_mult_source(), name="mult")
        second = client.upload(_mult_source(), name="mult")
        if second["job_id"] == first["job_id"]:
            assert second["deduped"] is True
        client.result(first["job_id"], timeout=120)

    def test_non_halting_program_trips_the_cycle_budget(self, open_client):
        client, service = open_client
        job = client.upload(SPIN_SOURCE, name="spin", max_cycles=500)
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=120)
        assert err.value.status == 422
        assert err.value.payload["code"] == "cycle_budget_exceeded"
        assert "500" in err.value.payload["error"]

    def test_computed_jump_through_input_is_unresolved_pc(self, open_client):
        client, service = open_client
        job = client.upload(JUMP_THROUGH_INPUT_SOURCE, name="jumpx")
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=120)
        assert err.value.status == 422
        assert err.value.payload["code"] == "unresolved_pc"
        assert "PC became unknown" in err.value.payload["error"]
        assert "repro." not in err.value.payload["error"]

    def test_upload_kind_is_rejected_on_the_jobs_endpoint(
        self, open_client
    ):
        client, service = open_client
        with pytest.raises(ServiceError) as err:
            client.submit("upload", source=SPIN_SOURCE)
        assert err.value.status == 400
        assert "/v1/programs" in err.value.payload["error"]

    def test_unknown_program_404(self, open_client):
        client, service = open_client
        with pytest.raises(ServiceError) as err:
            client.program("p0123456789abcdef")
        assert err.value.status == 404
        assert err.value.payload["code"] == "not_found"

    def test_rejected_uploads_leave_no_residue(
        self, isolated_runner, tmp_path
    ):
        """Bad uploads must not touch the scheduler or the journal."""
        journal = JobJournal(tmp_path / "journal.jsonl")
        service = AnalysisService(
            scheduler=JobScheduler(max_concurrent=1, journal=journal)
        )
        server, thread = _serve(service)
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
        )
        try:
            for source, status in (
                (BAD_SOURCE, 422),
                (BYTE_MODE_SOURCE, 422),
                ("", 400),
            ):
                with pytest.raises(ServiceError) as err:
                    client.upload(source)
                assert err.value.status == status
            assert service.scheduler.jobs() == []
            assert not journal.path.exists()  # not even an empty file
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=10)

    def test_oversized_source_413_over_http(self, open_client):
        """A source over the server cap (but under the transport body
        cap) gets the structured 413 and leaves no job behind."""
        client, service = open_client
        big = "; filler\n" * (gateway.MAX_SOURCE_BYTES_CAP // 8)
        with pytest.raises(ServiceError) as err:
            client.upload(big)
        assert err.value.status == 413
        assert err.value.payload["code"] == "source_too_large"
        assert service.scheduler.jobs() == []

    def test_giant_body_is_rejected_before_reading(self, open_client):
        import urllib.error
        import urllib.request

        client, service = open_client
        big = b'{"source": "' + b"x" * (2 * 1024 * 1024) + b'"}'
        request = urllib.request.Request(
            client.base_url + "/v1/programs",
            data=big,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("a 2 MB body must not be accepted")
        except urllib.error.HTTPError as err:
            # the server answered before draining the body
            assert err.code == 413
        except OSError:
            # or it hung up mid-upload — either way, nothing got in
            pass
        assert service.scheduler.jobs() == []


# -- tenancy over HTTP --------------------------------------------------


class TestTenantedGateway:
    def test_anonymous_requests_401(self, tenanted):
        with pytest.raises(ServiceError) as err:
            tenanted["anon"].jobs()
        assert err.value.status == 401
        assert err.value.payload["code"] == "unauthorized"
        with pytest.raises(ServiceError) as err:
            tenanted["anon"].upload(_mult_source())
        assert err.value.status == 401

    def test_healthz_stays_open_and_reports_tenancy(self, tenanted):
        health = tenanted["anon"].health()
        assert health["ok"] is True
        assert health["tenancy"] is True

    def test_revoked_key_401(self, tenanted):
        _, key = tenanted["keyring"].add("mallory")
        tenanted["keyring"].revoke("mallory")
        client = ServiceClient(tenanted["base"], api_key=key)
        with pytest.raises(ServiceError) as err:
            client.jobs()
        assert err.value.status == 401

    def test_tenant_isolation_and_admin_visibility(self, tenanted):
        _, bob_key = tenanted["keyring"].add("bob")
        bob = ServiceClient(tenanted["base"], timeout=30.0, api_key=bob_key)
        alice = tenanted["alice"]

        job = alice.upload(_mult_source(), name="mult")
        alice.result(job["job_id"], timeout=120)

        # a foreign job id answers 404, exactly like a nonexistent one
        with pytest.raises(ServiceError) as err:
            bob.status(job["job_id"])
        assert err.value.status == 404
        assert all(j["job_id"] != job["job_id"] for j in bob.jobs())

        # results are namespaced per tenant: bob never sees alice's
        with pytest.raises(ServiceError) as err:
            bob.program(job["program_id"])
        assert err.value.status == 404

        # the admin sees every tenant's jobs
        assert any(
            j["job_id"] == job["job_id"] for j in tenanted["admin"].jobs()
        )
        assert tenanted["admin"].status(job["job_id"])["state"] == "done"

    def test_store_maintenance_is_admin_only(self, tenanted):
        with pytest.raises(ServiceError) as err:
            tenanted["alice"].store_stats()
        assert err.value.status == 403
        assert err.value.payload["code"] == "forbidden"
        assert "entries" in tenanted["admin"].store_stats()

    def test_rate_limit_429_with_retry_after(self, tenanted):
        service = tenanted["service"]
        alice = tenanted["keyring"].get("alice")
        # drain the bucket white-box, then observe the HTTP refusal
        while service.rate_limiter.check("alice", alice.quotas).allowed:
            pass
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            tenanted["base"] + "/v1/programs",
            data=b'{"source": "x"}',
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-API-Key": tenanted["alice"].api_key,
            },
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 429
        assert int(err.value.headers["Retry-After"]) >= 1
        body = err.value.read()
        import json as _json

        payload = _json.loads(body)
        assert payload["code"] == "rate_limited"
        assert payload["retry_after_s"] >= 1

    def test_client_sleeps_out_429_and_succeeds(self, tenanted):
        """Satellite: the client honors Retry-After with bounded
        backoff instead of surfacing the 429."""
        service = tenanted["service"]
        alice = tenanted["keyring"].get("alice")
        while service.rate_limiter.check("alice", alice.quotas).allowed:
            pass
        t0 = time.monotonic()
        job = tenanted["alice"].upload(_mult_source(), name="mult")
        assert time.monotonic() - t0 >= 0.5  # it actually waited
        tenanted["alice"].result(job["job_id"], timeout=120)

    def test_client_raises_rate_limited_past_budget(self, tenanted):
        service = tenanted["service"]
        alice = tenanted["keyring"].get("alice")
        while service.rate_limiter.check("alice", alice.quotas).allowed:
            pass
        impatient = ServiceClient(
            tenanted["base"],
            api_key=tenanted["alice"].api_key,
            retry_429_budget_s=0.0,
        )
        with pytest.raises(RateLimitedError) as err:
            impatient.upload(_mult_source())
        assert err.value.status == 429
        assert err.value.retry_after_s >= 1

    def test_job_quota_429(self, tenanted):
        service = tenanted["service"]
        # fill alice's 2 slots white-box; the next submit must 429
        service.job_quota.note("alice")
        service.job_quota.note("alice")
        with pytest.raises(RateLimitedError) as err:
            ServiceClient(
                tenanted["base"],
                api_key=tenanted["alice"].api_key,
                retry_429_budget_s=0.0,
            ).upload(_mult_source())
        assert err.value.payload["code"] == "quota_exceeded"
        service.job_quota.release("alice")
        service.job_quota.release("alice")

    def test_quota_slot_released_when_job_finishes(self, tenanted):
        service = tenanted["service"]
        job = tenanted["alice"].upload(_mult_source(), name="mult")
        tenanted["alice"].result(job["job_id"], timeout=120)
        deadline = time.monotonic() + 5
        while (
            service.job_quota.active("alice")
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service.job_quota.active("alice") == 0

    def test_dedupe_does_not_leak_quota(self, tenanted):
        service = tenanted["service"]
        first = tenanted["alice"].upload(_mult_source(), name="mult")
        second = tenanted["alice"].upload(_mult_source(), name="mult")
        tenanted["alice"].result(first["job_id"], timeout=120)
        tenanted["alice"].result(second["job_id"], timeout=120)
        deadline = time.monotonic() + 5
        while (
            service.job_quota.active("alice")
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service.job_quota.active("alice") == 0


class TestResultTTL:
    def test_expired_result_404s_and_reupload_recomputes(
        self, isolated_runner, tmp_path
    ):
        keyring = Keyring(tmp_path / "keyring.json")
        _, key = keyring.add(
            "brief",
            quotas=TenantQuotas(
                requests_per_min=6000.0, burst=100, result_ttl_s=0.4
            ),
        )
        service = AnalysisService(
            scheduler=JobScheduler(max_concurrent=2), keyring=keyring
        )
        server, thread = _serve(service)
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout=30.0,
            api_key=key,
        )
        try:
            job = client.upload(_mult_source(), name="mult")
            result = client.result(job["job_id"], timeout=120)["result"]
            assert client.program(job["program_id"])  # fresh: readable
            time.sleep(0.5)
            # past the TTL the stored result is gone (a read is a miss
            # even before gc physically evicts the bytes)
            with pytest.raises(ServiceError) as err:
                client.program(job["program_id"])
            assert err.value.status == 404
            assert "expired" in err.value.payload["error"]

            # gc (admin path exercised elsewhere) evicts the artifact
            store = service.store
            key_name = gateway.store_key("brief", job["program_id"])
            report = store.gc()
            assert any(key_name in name for name in report.removed)

            # a re-upload recomputes rather than serving the corpse
            again = client.upload(_mult_source(), name="mult")
            fresh = client.result(again["job_id"], timeout=120)["result"]
            assert fresh["cached"] is False
            assert fresh["peak_power_mw"] == result["peak_power_mw"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=10)


class TestErrorEnvelope:
    def test_every_error_carries_a_machine_code(self, open_client):
        client, service = open_client
        import urllib.error
        import urllib.request

        for method, path, data, expected in (
            ("GET", "/v1/nope", None, "not_found"),
            ("GET", "/v1/jobs/job-999", None, "not_found"),
            ("POST", "/v1/jobs", b"not json", "invalid_request"),
            ("POST", "/v1/programs", b'{"source": 5}', "invalid_request"),
        ):
            request = urllib.request.Request(
                client.base_url + path, data=data, method=method
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            import json as _json

            payload = _json.loads(err.value.read())
            assert payload["code"] == expected, path
            assert "error" in payload

    def test_internal_errors_are_opaque(self, open_client, monkeypatch):
        """A handler bug must never leak tracebacks or store paths."""
        client, service = open_client

        root = service.store.root

        def boom(self):
            raise RuntimeError(f"secret path {root}")

        monkeypatch.setattr(AnalysisService, "store", property(boom))
        with pytest.raises(ServiceError) as err:
            client.store_stats()
        assert err.value.status == 500
        assert err.value.payload == {
            "error": "internal server error",
            "code": "internal",
        }

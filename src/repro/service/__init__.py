"""Analysis service layer: store + scheduler + HTTP API.

The paper's output — an application-specific peak power/energy bound —
is computed once per application and then reused for harvester/battery
sizing and power-management decisions.  This package turns the engine
into a long-lived query service with these layers:

* :mod:`repro.service.store` — a content-addressed artifact store that
  generalizes the ``.repro_cache`` pickle scheme into keyed, versioned,
  atomically-written artifacts with integrity digests, hit/miss
  counters, and a size-capped gc policy (``repro cache stats|gc``).
* :mod:`repro.service.scheduler` — an async job scheduler that accepts
  many concurrent analysis requests, dedupes identical in-flight jobs,
  orders them by priority, and multiplexes them over the host's cores
  (one job slot per core by default) with cancellation and per-job
  progress events.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only HTTP/JSON API (``repro serve``) and client (``repro
  submit``) exposing submit/status/result/events/store endpoints, so
  sizing questions become cheap repeatable queries.
* :mod:`repro.service.journal` — a durable write-ahead log of job
  transitions; ``repro serve`` replays it on startup so queued and
  running jobs survive crashes and restarts.
* :mod:`repro.service.faults` — named, seedable fault-injection sites
  (``REPRO_FAULTS``) so the crash/hang/retry machinery is exercised by
  chaos tests, not just written.
* :mod:`repro.service.gateway` — the multi-tenant upload pipeline:
  arbitrary MSP430 assembly in (size-capped, schema- and
  assembly-validated), the same guaranteed bound as ``repro analyze``
  out, namespaced per tenant with result TTLs (authn/quotas live in
  :mod:`repro.tenancy`).

The package itself imports nothing: every in-process analysis reaches
:mod:`repro.service.faults` and :mod:`repro.service.store`, and must not
pay for the gateway, journal, scheduler and workers on the way.  Import
the submodules by name.
"""

"""Named, seedable fault-injection sites for chaos testing.

The robustness machinery — worker crash retries, the heartbeat
watchdog, journal-based crash recovery — is only trustworthy if its
failure paths are *exercised*, not just written.  This module plants
named fault sites at the seams where real faults strike::

    worker.start        the worker process, before the executor runs
    explore.batch       each pending-path drain iteration (Algorithm 1)
    peakpower.segment   each segment/parity pass (Algorithm 2)
    store.read          every artifact-store read
    store.write         every artifact-store publish

A site is a single cheap call — ``faults.hit("worker.start")`` — that
does nothing unless the ``REPRO_FAULTS`` environment variable names it.
The worker is handed the server's environment per job, so one exported
spec arms the whole service stack, CI included.

Spec grammar (``;``-separated sites)::

    REPRO_FAULTS="<site>=<action>[:key=value[,key=value...]][;<site>=...]"

Actions:

``crash``   SIGKILL this process (a segfault/OOM stand-in — exercises
            the retryable :class:`~repro.service.workers.WorkerCrashed`
            path and the exit-code decoding).
``hang``    stop making progress: sleep without reaching another
            checkpoint, so only the heartbeat watchdog (or the kill
            backstop) ends it.  ``ms`` caps the hang for non-supervised
            contexts (default: forever).
``delay``   sleep ``ms`` milliseconds, then continue (slows a job down
            so tests can reliably catch it mid-flight).
``raise``   raise :class:`FaultInjected` (an ordinary executor
            exception — the *permanent* failure path).

Triggers (combinable; all must agree for the fault to fire):

``nth=N``         fire only on the Nth hit of this site in this process
``on_attempt=N``  fire only when the ambient job attempt is N (workers
                  call :func:`set_attempt`; retries get a fresh worker
                  process, so per-process hit counts cannot distinguish
                  attempts — this trigger can)
``p=0.25``        fire with probability p per eligible hit, from a
                  dedicated ``random.Random(seed)`` stream (``seed=S``,
                  default 0) so chaos runs replay deterministically

Examples::

    REPRO_FAULTS="worker.start=crash:on_attempt=1"      # retried crash
    REPRO_FAULTS="worker.start=hang:on_attempt=1"       # watchdog prey
    REPRO_FAULTS="explore.batch=delay:ms=200"           # slow-motion job
    REPRO_FAULTS="store.read=raise:p=0.5,seed=7"        # flaky store
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass

FAULTS_ENV = "REPRO_FAULTS"

ACTIONS = ("crash", "hang", "delay", "raise")

#: chunked sleep so a hang stays killable and honors its optional cap
_HANG_POLL_S = 0.25


class FaultInjected(RuntimeError):
    """The ``raise`` action fired at a fault site."""


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` spec (bad site/action/trigger)."""


@dataclass
class FaultRule:
    """One armed site, as parsed from the spec."""

    site: str
    action: str
    p: float = 1.0
    nth: int | None = None
    on_attempt: int | None = None
    ms: float | None = None
    seed: int = 0


def parse_spec(spec: str) -> dict[str, FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec into per-site rules.

    Raises :class:`FaultSpecError` on malformed input — a chaos run
    with a typo'd spec must fail loudly, not silently inject nothing.
    """
    rules: dict[str, FaultRule] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        site, sep, rest = clause.partition("=")
        site = site.strip()
        if not sep or not site:
            raise FaultSpecError(
                f"fault clause {clause!r} is not <site>=<action>[:k=v,...]"
            )
        action, _, params = rest.partition(":")
        action = action.strip()
        if action not in ACTIONS:
            valid = ", ".join(ACTIONS)
            raise FaultSpecError(
                f"unknown fault action {action!r} for site {site!r}; "
                f"valid actions: {valid}"
            )
        rule = FaultRule(site=site, action=action)
        for item in params.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise FaultSpecError(
                    f"fault trigger {item!r} for site {site!r} is not key=value"
                )
            try:
                if key == "p":
                    rule.p = float(value)
                elif key == "nth":
                    rule.nth = int(value)
                elif key == "on_attempt":
                    rule.on_attempt = int(value)
                elif key == "ms":
                    rule.ms = float(value)
                elif key == "seed":
                    rule.seed = int(value)
                else:
                    raise FaultSpecError(
                        f"unknown fault trigger {key!r} for site {site!r}; "
                        f"valid triggers: p, nth, on_attempt, ms, seed"
                    )
            except ValueError as err:
                if isinstance(err, FaultSpecError):
                    raise
                raise FaultSpecError(
                    f"fault trigger {item!r} for site {site!r}: bad value"
                ) from None
        if not 0.0 <= rule.p <= 1.0:
            raise FaultSpecError(
                f"fault probability for site {site!r} must be in [0, 1], "
                f"got {rule.p}"
            )
        rules[site] = rule
    return rules


class _Plan:
    """The active spec plus per-process firing state (hit counters and
    one seeded RNG stream per site)."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.rules = parse_spec(spec)
        self.hits: dict[str, int] = {}
        self.rngs = {
            site: random.Random(rule.seed)
            for site, rule in self.rules.items()
        }


_plan: _Plan | None = None
_attempt: int = 1


def set_attempt(attempt: int) -> None:
    """Set the ambient job attempt (worker processes call this on entry)
    so ``on_attempt=N`` triggers can target a specific retry."""
    global _attempt
    _attempt = attempt


def active_spec() -> str:
    """The raw ``REPRO_FAULTS`` value ('' when chaos is off)."""
    return os.environ.get(FAULTS_ENV, "")


def hit(site: str) -> None:
    """Pass through a named fault site.

    Free when ``REPRO_FAULTS`` is unset.  When the active spec arms
    *site*, evaluate its triggers and fire the action.  The plan (hit
    counters, RNG streams) is cached per spec string, so flipping the
    environment variable re-arms cleanly mid-process (tests) while
    steady-state calls stay cheap.
    """
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return
    global _plan
    plan = _plan
    if plan is None or plan.spec != spec:
        plan = _plan = _Plan(spec)
    rule = plan.rules.get(site)
    if rule is None:
        return
    plan.hits[site] = count = plan.hits.get(site, 0) + 1
    if rule.on_attempt is not None and _attempt != rule.on_attempt:
        return
    if rule.nth is not None and count != rule.nth:
        return
    if rule.p < 1.0 and plan.rngs[site].random() >= rule.p:
        return
    _fire(rule)


def _fire(rule: FaultRule) -> None:
    if rule.action == "crash":
        # indistinguishable from a segfault/OOM kill: no cleanup, no
        # terminal pipe message, exit code -SIGKILL
        os.kill(os.getpid(), signal.SIGKILL)
    elif rule.action == "hang":
        deadline = (
            time.monotonic() + rule.ms / 1000.0 if rule.ms is not None
            else None
        )
        while deadline is None or time.monotonic() < deadline:
            time.sleep(_HANG_POLL_S)
    elif rule.action == "delay":
        time.sleep((rule.ms if rule.ms is not None else 100.0) / 1000.0)
    else:  # raise
        raise FaultInjected(f"injected fault at site {rule.site!r}")

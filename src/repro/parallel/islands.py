"""Island-model GA scheduling (stressmark populations across processes).

An archipelago of :class:`~repro.core.stressmark.Island` states evolves
in epochs: every island advances ``migration_interval`` generations
independently (these are the parallel units), then the best-ever genome
of island *i* replaces the youngest child of island ``(i+1) % N`` — a
deterministic ring migration.  Because each island owns a private seeded
random stream and migration happens at synchronized epoch boundaries,
the archipelago's evolution is a pure function of the island seeds: any
worker count — 1, N, or anything between — produces the identical
stressmark.

Workers are fork-start processes that inherit the elaborated CPU and
power model from the parent; only the (small) island states cross the
process boundary.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any

_CTX: dict[str, Any] | None = None


def _evolve_task(args: tuple):
    """Worker body: advance one island a whole epoch; returns the island."""
    from repro.core.stressmark import evolve_island

    island, objective, span, population, genome_length = args
    ctx = _CTX
    return evolve_island(
        ctx["cpu"],
        ctx["model"],
        island,
        objective,
        span,
        population,
        genome_length,
    )


def migrate_ring(states: list) -> None:
    """Deterministic ring migration: best of *i* -> worst slot of *i+1*.

    The receiving slot is the population's last member (the youngest
    child of the previous epoch), so migration needs no fitness
    re-evaluation and is identical however the epoch was scheduled.
    Islands without a best yet (possible only with zero-fitness pools)
    simply skip their send.
    """
    bests = [island.best for island in states]
    for index, island in enumerate(states):
        incoming = bests[(index - 1) % len(states)]
        if incoming is not None:
            island.pool[-1] = list(incoming[2])


def evolve_archipelago(
    cpu,
    model,
    states: list,
    objective: str,
    generations: int,
    population: int,
    genome_length: int,
    migration_interval: int,
    workers: int | None = None,
    cancel=None,
) -> list:
    """Evolve *states* for *generations* with periodic ring migration.

    Epochs of ``migration_interval`` generations alternate with
    migrations; the final epoch is truncated to the remaining budget.
    With ``workers > 1`` (and fork available) each epoch's islands are
    evaluated in worker processes; the serial path runs them in order.
    Both paths produce identical islands.  *cancel* is checked at epoch
    boundaries in the master (tokens do not cross the fork boundary —
    worker epochs are bounded, so the check latency is one epoch).
    """
    from repro.parallel.pool import fork_available, fork_context, resolve_workers

    global _CTX
    if migration_interval < 1:
        message = f"migration_interval must be >= 1, got {migration_interval}"
        raise ValueError(message)
    workers = resolve_workers(workers)
    use_pool = workers > 1 and len(states) > 1 and fork_available()
    done = 0
    _CTX = {"cpu": cpu, "model": model}
    try:
        pool = None
        if use_pool:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(states)),
                mp_context=fork_context(),
            )
        try:
            while done < generations:
                if cancel is not None:
                    cancel.check()
                span = min(migration_interval, generations - done)
                common = (objective, span, population, genome_length)
                tasks = [(island, *common) for island in states]
                if pool is not None:
                    states = list(pool.map(_evolve_task, tasks))
                else:
                    states = [_evolve_task(task) for task in tasks]
                done += span
                if done < generations:
                    migrate_ring(states)
        finally:
            if pool is not None:
                pool.shutdown()
    finally:
        _CTX = None
    return states

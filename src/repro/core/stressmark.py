"""Genetic-algorithm stressmark generation (the Audit-style baseline).

Kim et al.'s Audit framework breeds instruction sequences that maximize a
power objective; the paper adapts it to target peak instantaneous power
and average power on openMSP430.  This module does the same for our core:
a genome is a short sequence of parameterized instruction templates, run
twice in a loop on the gate-level model, and scored by measured peak (or
average) power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm import assemble
from repro.core.baselines import GUARDBAND
from repro.power.model import PowerModel

#: instruction templates; {r} registers drawn from r4-r11, {v} random word,
#: {n} small even offset.  r12 is the data-area base pointer.
TEMPLATES = [
    "mov #{v}, r{r}",
    "add r{r}, r{r2}",
    "xor r{r}, r{r2}",
    "and #{v}, r{r}",
    "swpb r{r}",
    "rla r{r}",
    "mov {n}(r12), r{r}",
    "mov r{r}, {n}(r12)",
    "push r{r}",
    "pop r{r}",
    "mov r{r}, &0x0130",  # MPY
    "mov r{r}, &0x0138",  # OP2 (fires the multiplier)
    "mov &0x013A, r{r}",  # RESLO
]

# r12 is the data-area base and r13 the loop counter: both are outside
# the r4-r11 range the gene pool draws from, so no gene can clobber them.
HEADER = """
        .equ WDTCTL, 0x0120
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #0x0400, r12
        mov #0xA5A5, r4
        mov #0x5A5A, r5
        mov #2, r13         ; loop twice
"""

FOOTER = """
        dec r13
        jnz body
end:    jmp end
"""


@dataclass
class Gene:
    template: int
    r: int
    r2: int
    value: int
    offset: int

    def render(self) -> str:
        text = TEMPLATES[self.template]
        return "        " + text.format(
            r=self.r, r2=self.r2, v=self.value, n=self.offset
        )


@dataclass
class Stressmark:
    """The winning individual and its measured requirements."""

    source: str
    peak_power_mw: float
    avg_power_mw: float
    generations: int

    @property
    def guardbanded_peak_power_mw(self) -> float:
        return self.peak_power_mw * GUARDBAND

    def npe_pj_per_cycle(self, clock_ns: float) -> float:
        """Average power expressed as energy per cycle (the NPE metric)."""
        return self.avg_power_mw * clock_ns

    def guardbanded_npe(self, clock_ns: float) -> float:
        return self.npe_pj_per_cycle(clock_ns) * GUARDBAND


def _random_gene(rng: np.random.Generator) -> Gene:
    return Gene(
        template=int(rng.integers(0, len(TEMPLATES))),
        r=int(rng.integers(4, 12)),
        r2=int(rng.integers(4, 12)),
        value=int(rng.integers(0, 0x10000)),
        offset=int(rng.integers(0, 8)) * 2,
    )


def _genome_source(genome: list[Gene]) -> str:
    pushes = 0
    lines = ["body:"]
    for gene in genome:
        text = gene.render()
        # keep the stack balanced: a pop with nothing pushed is skipped
        if "push" in text:
            pushes += 1
        if "pop" in text:
            if pushes == 0:
                continue
            pushes -= 1
        lines.append(text)
    lines.extend("        pop r15" for _ in range(pushes))
    return HEADER + "\n".join(lines) + FOOTER


def _run_and_score(
    cpu, model: PowerModel, machines: list
) -> list[tuple[float, float]]:
    """(peak, average) power of each concrete machine run to halt."""
    from repro.sim.batch import run_batch_to_halt

    scores = []
    for trace, _cycles in run_batch_to_halt(cpu, machines, max_cycles=5_000):
        power = model.trace_power(
            trace.values_matrix(packed=True), trace.mem_accesses(),
            bit_order=trace.bit_order,
        )
        scores.append((power.peak(), power.average()))
    return scores


#: most genomes scored in one lock-step batch: the native kernel's
#: group width.  A generation's genomes, across every island, run in
#: batches of this many, which bounds the traces held at once.
MAX_BATCH_GENOMES = 64


def _evaluate_population(
    cpu, model: PowerModel, pool: list[list[Gene]]
) -> list[tuple[float, float]]:
    """Score every genome of *pool*; malformed individuals get 0.

    Viable genomes run to halt in lock-step, up to
    :data:`MAX_BATCH_GENOMES` to a :class:`~repro.sim.batch.BatchMachine`
    — the population evaluation is the GA's entire cost, and its members
    are independent programs on the same netlist.  Lock-step traces are
    bit-identical to scalar runs, so evolution does not depend on how
    the genomes are batched.  One bad lane fails its whole batch, so a
    batch-level failure reruns each of its genomes as its own
    one-machine batch, and only the offending genome scores zero.
    """
    scores: list[tuple[float, float]] = []
    for start in range(0, len(pool), MAX_BATCH_GENOMES):
        scores += _evaluate_batch(
            cpu, model, pool[start:start + MAX_BATCH_GENOMES]
        )
    return scores


def _evaluate_batch(
    cpu, model: PowerModel, pool: list[list[Gene]]
) -> list[tuple[float, float]]:
    """:func:`_evaluate_population` for one lock-step batch."""
    scores: list[tuple[float, float]] = [(0.0, 0.0)] * len(pool)
    machines = []
    positions = []
    for position, genome in enumerate(pool):
        try:
            program = assemble(_genome_source(genome), "stressmark")
            machines.append(
                cpu.make_machine(program, symbolic_inputs=False, port_in=0)
            )
            positions.append(position)
        except Exception:
            pass  # assembly failure: keep the zero score
    try:
        scored = _run_and_score(cpu, model, machines)
    except Exception:
        scored = []
        for machine in machines:
            try:
                scored += _run_and_score(cpu, model, [machine])
            except Exception:
                scored.append((0.0, 0.0))  # malformed individual: selected out
    for position, score in zip(positions, scored):
        scores[position] = score
    return scores


@dataclass
class Island:
    """One GA population plus its private random stream and best-ever.

    The whole evolution of an island is a function of this state, its
    scores and the genomes migration hands it: islands are seeded
    deterministically, breed from their own scores, and migration is a
    deterministic ring exchange.
    """

    rng: np.random.Generator
    pool: list[list[Gene]]
    #: best-ever (peak_mw, avg_mw, genome), by the caller's objective
    best: tuple[float, float, list[Gene]] | None = None


def make_island(seed: int, population: int, genome_length: int) -> Island:
    """A freshly seeded island with a random starting population."""
    rng = np.random.default_rng(seed)
    pool = [
        [_random_gene(rng) for _ in range(genome_length)]
        for _ in range(population)
    ]
    return Island(rng=rng, pool=pool)


def breed_island(
    island: Island,
    scores: list[tuple[float, float]],
    objective: str,
    population: int,
    genome_length: int,
) -> None:
    """One GA generation of *island* from its pool's *scores*, in place:
    record the best-ever, keep the fitter half, and refill the pool
    with mutated crossover children."""
    rng = island.rng
    scored = []
    for genome, (peak, avg) in zip(island.pool, scores):
        fitness = peak if objective == "peak" else avg
        scored.append((fitness, peak, avg, genome))
    scored.sort(key=lambda item: -item[0])
    best = island.best
    if best is None or scored[0][0] > _fitness(best, objective):
        island.best = (scored[0][1], scored[0][2], scored[0][3])
    survivors = [genome for _f, _p, _a, genome in scored[: population // 2]]
    children = []
    while len(survivors) + len(children) < population:
        mother, father = rng.choice(len(survivors), size=2, replace=True)
        cut = int(rng.integers(1, genome_length))
        child = list(survivors[mother][:cut]) + list(survivors[father][cut:])
        for position in range(genome_length):
            if rng.random() < 0.15:
                child[position] = _random_gene(rng)
        children.append(child)
    island.pool = survivors + children


def migrate_ring(states: list[Island]) -> None:
    """Deterministic ring migration: best of *i* -> worst slot of *i+1*.

    The receiving slot is the population's last member (the youngest
    child of the previous generation), so migration needs no fitness
    re-evaluation.  Islands without a best yet (possible only with
    zero-fitness pools) simply skip their send.
    """
    bests = [island.best for island in states]
    for index, island in enumerate(states):
        incoming = bests[(index - 1) % len(states)]
        if incoming is not None:
            island.pool[-1] = list(incoming[2])


#: the power figures a stressmark can be bred for
OBJECTIVES = ("peak", "average")

#: offset between island seeds; any constant works, a prime keeps the
#: derived streams visibly distinct in logs
ISLAND_SEED_STRIDE = 9973


def resolve_island_knobs(
    islands: int | None = None, migration_interval: int | None = None
) -> tuple[int, int]:
    """The island-model knobs: each explicit argument, or the classic
    single-population defaults ``(1, 2)``; both must be >= 1.  The
    environment plays no part."""
    islands = 1 if islands is None else islands
    if migration_interval is None:
        migration_interval = 2
    for name, value in (
        ("islands", islands), ("migration_interval", migration_interval)
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return islands, migration_interval


def generate_stressmark(
    cpu,
    model: PowerModel,
    objective: str = "peak",
    population: int = 10,
    generations: int = 6,
    genome_length: int = 12,
    seed: int = 42,
    islands: int | None = None,
    migration_interval: int | None = None,
    cancel=None,
) -> Stressmark:
    """Breed a stressmark targeting ``"peak"`` or ``"average"`` power.

    *islands* independent populations (seeded ``seed, seed + stride,
    ...``) evolve one generation at a time: each generation scores every
    island's not yet scored genomes together in lock-step (one lane per
    genome; scores, and hence the whole evolution, are identical to
    per-genome runs), then each island breeds from its own scores.
    After every *migration_interval* generations but the last, each
    island's best-ever genome moves around a deterministic ring, and the
    fittest individual across islands wins.  One island is the classic
    GA.

    ``islands=None``/``migration_interval=None`` give the classic single
    population (:func:`resolve_island_knobs`).  *cancel* (a
    :class:`repro.parallel.cancel.CancelToken`) is checked before every
    generation; a set token aborts the evolution with
    :class:`repro.parallel.cancel.JobCancelled` (a ``BaseException``, so
    the batch-evaluation fallback's broad ``except Exception`` cannot
    swallow it).  Cancellation aborts, it never alters scores.
    """
    if objective not in OBJECTIVES:
        raise ValueError("objective must be 'peak' or 'average'")
    islands, migration_interval = resolve_island_knobs(
        islands, migration_interval
    )
    states = [
        make_island(seed + index * ISLAND_SEED_STRIDE, population, genome_length)
        for index in range(islands)
    ]
    # a genome's score is a function of its source, so survivors,
    # migrants and duplicate children are scored once
    known: dict[str, tuple[float, float]] = {}
    for generation in range(1, generations + 1):
        if cancel is not None:
            cancel.check()
        genomes = [genome for island in states for genome in island.pool]
        sources = [_genome_source(genome) for genome in genomes]
        fresh = {}
        for source, genome in zip(sources, genomes):
            if source not in known:
                fresh.setdefault(source, genome)
        known.update(zip(
            fresh, _evaluate_population(cpu, model, list(fresh.values()))
        ))
        start = 0
        for island in states:
            stop = start + len(island.pool)
            breed_island(
                island, [known[source] for source in sources[start:stop]],
                objective, population, genome_length,
            )
            start = stop
        if (
            islands > 1
            and generation % migration_interval == 0
            and generation < generations
        ):
            migrate_ring(states)

    best = None
    for island in states:  # first island wins ties: deterministic
        if island.best is None:
            continue
        if best is None or _fitness(island.best, objective) > _fitness(
            best, objective
        ):
            best = island.best
    peak, avg, genome = best
    return Stressmark(
        source=_genome_source(genome),
        peak_power_mw=peak,
        avg_power_mw=avg,
        generations=generations,
    )


def _fitness(best: tuple[float, float, list[Gene]], objective: str) -> float:
    return best[0] if objective == "peak" else best[1]

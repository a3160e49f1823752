"""Benchmark registry: sources, input generators, and reference models.

Each :class:`Benchmark` carries a deterministic input generator (seeded
numpy RNG) used by input-based profiling and validation, plus exploration
budgets tuned to each kernel's branching structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.asm import assemble
from repro.asm.program import Program
from repro.bench import programs as srcs

MASK16 = 0xFFFF


@dataclass
class Benchmark:
    """One entry of Table 4.1."""

    name: str
    source: str
    category: str  # "sensor" | "eembc" | "control"
    description: str
    #: draws one concrete input set: rng -> list of input words
    input_gen: Callable[[np.random.Generator], list[int]]
    #: exploration budget overrides
    max_segments: int = 4_096
    max_cycles: int = 400_000
    #: loop bound for peak-energy on cyclic trees (None: tree is acyclic)
    loop_bound: int | None = None

    def program(self) -> Program:
        return assemble(self.source, self.name)

    def analysis_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.core.api.analyze`.

        Bundles this kernel's exploration budgets so the runner, the CLI,
        and the perf harness all analyze a benchmark identically.  The
        simulation engine follows from the host (native, or the
        reference engine when the kernel cannot be built) and fixes the
        lock-step width.
        """
        return {
            "loop_bound": self.loop_bound,
            "max_segments": self.max_segments,
            "max_cycles": self.max_cycles,
        }

    def input_sets(self, count: int, seed: int = 2017) -> list[list[int]]:
        """Deterministic profiling input sets (the paper runs "several")."""
        rng = np.random.default_rng(seed)
        return [self.input_gen(rng) for _ in range(count)]


def _uniform(n: int, high: int = 0x10000):
    def gen(rng: np.random.Generator) -> list[int]:
        return [int(v) for v in rng.integers(0, high, size=n)]

    return gen


def _samples(n: int, high: int = 0x400):
    """ADC-like small-magnitude sensor samples."""
    return _uniform(n, high)


ALL_BENCHMARKS: dict[str, Benchmark] = {}


def _register(benchmark: Benchmark) -> None:
    ALL_BENCHMARKS[benchmark.name] = benchmark


_register(Benchmark(
    name="mult",
    source=srcs.MULT,
    category="sensor",
    description="multiply-accumulate over input pairs (hardware multiplier)",
    input_gen=_uniform(8),
))
_register(Benchmark(
    name="binSearch",
    source=srcs.BINSEARCH,
    category="sensor",
    description="binary search for an input key in a constant sorted table",
    input_gen=_uniform(1, 100),
))
_register(Benchmark(
    name="tea8",
    source=srcs.TEA8,
    category="sensor",
    description="TEA-style block mixing: shifts and XORs, no multiplier",
    input_gen=_uniform(2),
))
_register(Benchmark(
    name="intFilt",
    source=srcs.INTFILT,
    category="sensor",
    description="3-tap integer moving-sum filter with indexed loads",
    input_gen=_samples(8),
))
_register(Benchmark(
    name="tHold",
    source=srcs.THOLD,
    category="sensor",
    description="per-sample threshold detector driving the GPIO port",
    input_gen=_samples(4),
))
_register(Benchmark(
    name="div",
    source=srcs.DIV,
    category="sensor",
    description="restoring division of an input dividend",
    input_gen=_uniform(1, 16),
))
_register(Benchmark(
    name="inSort",
    source=srcs.INSORT,
    category="sensor",
    description="insertion sort of input words (data-dependent branching)",
    input_gen=_samples(4),
    max_segments=8_192,
))
_register(Benchmark(
    name="rle",
    source=srcs.RLE,
    category="sensor",
    description="run-length encoding against the previous sample",
    input_gen=_uniform(4, 4),
))
_register(Benchmark(
    name="intAVG",
    source=srcs.INTAVG,
    category="sensor",
    description="running average of input samples",
    input_gen=_samples(8),
))
_register(Benchmark(
    name="autoCorr",
    source=srcs.AUTOCORR,
    category="eembc",
    description="autocorrelation at two lags (multiplier-heavy)",
    input_gen=_samples(5),
))
_register(Benchmark(
    name="FFT",
    source=srcs.FFT,
    category="eembc",
    description="4-point FFT butterfly pass",
    input_gen=_samples(4),
))
_register(Benchmark(
    name="ConvEn",
    source=srcs.CONVEN,
    category="eembc",
    description="rate-1/2 convolutional encoder (branch-free bit loop)",
    input_gen=_uniform(1, 256),
))
_register(Benchmark(
    name="Viterbi",
    source=srcs.VITERBI,
    category="eembc",
    description="2-state add-compare-select trellis",
    input_gen=_samples(3, 0x100),
))
_register(Benchmark(
    name="PI",
    source=srcs.PI,
    category="control",
    description="proportional-integral controller with saturation",
    input_gen=_samples(2),
))

SENSOR_BENCHMARKS = [b for b in ALL_BENCHMARKS.values() if b.category == "sensor"]
EEMBC_BENCHMARKS = [b for b in ALL_BENCHMARKS.values() if b.category == "eembc"]


def get_benchmark(name: str) -> Benchmark:
    try:
        return ALL_BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(ALL_BENCHMARKS)}"
        ) from None

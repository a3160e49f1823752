"""Differential regression layer: every engine ≡ the scalar reference.

For every Table 4.1 benchmark the batched **bitplane** engine (packed
dual-rail planes, the default) must produce the *same*
:class:`ExecutionTree` as the scalar uint8 reference — segment for
segment, fork for fork, trace record for trace record — and the analysis
numbers computed from it must match the golden values pinned from the
seed's scalar run (``tests/golden_suite.json``).  This covers both axes
at once: the lock-step batching (PR 1) and the packed representation
(this PR); the batched *reference* engine keeps a spot check.

The heavy multi-path kernels make this the most expensive test module in
the suite; everything per benchmark is computed once in a module-scoped
fixture and shared across the assertions.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.suite import ALL_BENCHMARKS, get_benchmark
from repro.cells import SG65
from repro.core.activity import explore
from repro.core.peakenergy import compute_peak_energy
from repro.core.peakpower import compute_peak_power
from repro.power.model import PowerModel

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_suite.json").read_text()
)

#: comfortably tighter than any real drift, loose enough for libm/numpy
#: version skew in the last couple of ulps
REL = 1e-9


def assert_trees_identical(scalar, batched):
    assert len(batched.segments) == len(scalar.segments)
    assert batched.n_memo_hits == scalar.n_memo_hits
    for ours, ref in zip(batched.segments, scalar.segments):
        assert ours.index == ref.index
        assert ours.parent == ref.parent
        assert ours.flat_start == ref.flat_start
        assert ours.n_cycles == ref.n_cycles
        assert ours.end == ref.end
        assert [(f.assignment, f.target) for f in ours.forks] == [
            (f.assignment, f.target) for f in ref.forks
        ]
    assert len(batched.flat_trace) == len(scalar.flat_trace)
    assert np.array_equal(
        batched.flat_trace.values_matrix(), scalar.flat_trace.values_matrix()
    ), "settled net values differ"
    assert np.array_equal(
        batched.flat_trace.active_matrix(), scalar.flat_trace.active_matrix()
    ), "activity flags differ"
    assert np.array_equal(
        batched.flat_trace.mem_accesses(), scalar.flat_trace.mem_accesses()
    ), "memory access counts differ"
    for ours, ref in zip(batched.flat_trace.records, scalar.flat_trace.records):
        assert ours.cycle == ref.cycle
        assert ours.annotations == ref.annotations


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


@pytest.fixture(scope="module", params=sorted(ALL_BENCHMARKS))
def engines(request, cpu):
    """(name, reference scalar tree, bitplane batched tree) per benchmark."""
    name = request.param
    benchmark = get_benchmark(name)
    trees = [
        explore(
            cpu,
            benchmark.program(),
            max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments,
            batch_size=batch_size,
            engine=engine,
        )
        for batch_size, engine in ((1, "reference"), (None, "bitplane"))
    ]
    return name, trees[0], trees[1]


class TestBatchedEqualsScalar:
    def test_execution_tree_bit_identical(self, engines):
        _name, scalar, batched = engines
        assert_trees_identical(scalar, batched)

    def test_reference_batched_spot_check(self, cpu):
        """The uint8 reference engine's lock-step mode stays identical too
        (one benchmark-sized probe on mult; the bitplane fixture covers
        all 14)."""
        benchmark = get_benchmark("mult")
        scalar, batched = (
            explore(
                cpu,
                benchmark.program(),
                max_cycles=benchmark.max_cycles,
                max_segments=benchmark.max_segments,
                batch_size=batch_size,
                engine="reference",
            )
            for batch_size in (1, 8)
        )
        assert_trees_identical(scalar, batched)

    def test_analysis_matches_golden(self, engines, model):
        """Batched-engine analysis reproduces the pinned seed numbers."""
        name, _scalar, batched = engines
        benchmark = get_benchmark(name)
        peak_power = compute_peak_power(batched, model)
        peak_energy = compute_peak_energy(
            batched, peak_power, loop_bound=benchmark.loop_bound
        )
        golden = GOLDEN[name]
        assert len(batched.segments) == golden["n_segments"]
        assert batched.n_cycles == golden["n_cycles"]
        assert batched.n_memo_hits == golden["n_memo_hits"]
        assert peak_power.peak_cycle == golden["peak_cycle"]
        assert peak_energy.path_cycles == golden["path_cycles"]
        assert peak_power.peak_power_mw == pytest.approx(
            golden["peak_power_mw"], rel=REL
        )
        assert peak_energy.peak_energy_pj == pytest.approx(
            golden["peak_energy_pj"], rel=REL
        )
        assert peak_energy.normalized_peak_energy_pj_per_cycle == pytest.approx(
            golden["npe_pj_per_cycle"], rel=REL
        )


class TestStackedPeakPowerEqualsScalar:
    """Vectorized Algorithm 2 ≡ the retained per-segment reference.

    Bit-identical means bit-identical: the engines share one einsum-based
    transition kernel whose row results are independent of chunking and
    row subsetting, so even the float outputs must match exactly.
    """

    @pytest.fixture(scope="class")
    def peak_pair(self, engines, model):
        name, _scalar, batched = engines
        scalar_peak = compute_peak_power(batched, model, engine="scalar")
        stacked_peak = compute_peak_power(batched, model, engine="stacked")
        return name, batched, scalar_peak, stacked_peak

    def test_peak_trace_bit_identical(self, peak_pair):
        _name, _tree, scalar_peak, stacked_peak = peak_pair
        assert np.array_equal(scalar_peak.trace_mw, stacked_peak.trace_mw)
        assert scalar_peak.peak_cycle == stacked_peak.peak_cycle
        assert scalar_peak.peak_power_mw == stacked_peak.peak_power_mw

    def test_even_odd_profiles_bit_identical(self, peak_pair):
        _name, _tree, scalar_peak, stacked_peak = peak_pair
        assert np.array_equal(
            scalar_peak.even_values, stacked_peak.even_values
        )
        assert np.array_equal(scalar_peak.odd_values, stacked_peak.odd_values)

    def test_module_breakdown_bit_identical(self, peak_pair):
        _name, _tree, scalar_peak, stacked_peak = peak_pair
        assert set(scalar_peak.module_mw) == set(stacked_peak.module_mw)
        for name, series in scalar_peak.module_mw.items():
            assert np.array_equal(series, stacked_peak.module_mw[name]), name

    def test_segment_energies_bit_identical(self, peak_pair):
        name, tree, scalar_peak, stacked_peak = peak_pair
        assert np.array_equal(
            scalar_peak.segment_energy_pj, stacked_peak.segment_energy_pj
        )
        benchmark = get_benchmark(name)
        energies = [
            compute_peak_energy(tree, peak, loop_bound=benchmark.loop_bound)
            for peak in (scalar_peak, stacked_peak)
        ]
        assert energies[0].peak_energy_pj == energies[1].peak_energy_pj
        assert energies[0].path_segments == energies[1].path_segments


class TestGoldenCoverage:
    def test_all_benchmarks_pinned(self):
        assert set(GOLDEN) == set(ALL_BENCHMARKS)

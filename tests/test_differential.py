"""Differential regression layer: every engine ≡ the frozen scalar trees.

The original explorer simulated one pending path at a time on the uint8
reference engine, and Algorithm 2 had a per-segment scalar copy.  Their
output on the 14 Table 4.1 benchmarks is frozen in
``tests/golden_trees.json``: per benchmark, the
:meth:`~repro.core.activity.ExecutionTree.digest` of the execution tree
(segments, forks, memo hits, the value/activity/memory-access matrices,
record cycles and annotations) and a digest of the even/odd witness
profiles.  Only exact data is digested, so the pins hold under any numpy.

The batched uint8 reference engine (the oracle, and the fallback of
hosts without a C compiler) must reproduce the tree digest at its
default batch width; ``test_native`` holds the compiled native kernels
(the default) to the same digests.  The analysis numbers computed from
the reference tree must match ``tests/golden_suite.json``, and
Algorithm 2 must match its trit-level
reference cycle by cycle: :func:`maximize_parity` on the raw
(predecessor, cycle) row pair, priced by
:meth:`~repro.power.model.PowerModel.transition_power`.

The reference explores each benchmark once, in a module-scoped fixture
shared by every assertion.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.suite import ALL_BENCHMARKS, get_benchmark
from repro.cells import SG65
from repro.core.activity import explore
from repro.core.peakenergy import compute_peak_energy
from repro.core.peakpower import (
    PeakPowerResult,
    compute_peak_power,
    maximize_parity,
)
from repro.power.model import PowerModel
from test_power import parity_stacks, price_both

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_suite.json").read_text()
)
GOLDEN_TREES = json.loads(
    (Path(__file__).parent / "golden_trees.json").read_text()
)

#: comfortably tighter than any real drift, loose enough for libm/numpy
#: version skew in the last couple of ulps
REL = 1e-9

#: the analyze-summary fields ``perfbench`` compares with each
#: ``golden_suite.json`` entry — it compares *every* key of the entry, so
#: a digest or any other extra key there would fail every benchmark op;
#: tree digests live in ``golden_trees.json`` instead
SUMMARY_FIELDS = {
    "peak_power_mw", "peak_energy_pj", "npe_pj_per_cycle", "peak_cycle",
    "path_cycles", "n_segments", "n_cycles", "n_memo_hits",
}

def witness_digest(peak: PeakPowerResult) -> str:
    """blake2b of the even, then odd, witness profile (uint8 trits)."""
    h = hashlib.blake2b(digest_size=16)
    for profile in peak.witnesses():
        h.update(np.ascontiguousarray(profile, dtype=np.uint8).tobytes())
    return h.hexdigest()


def explore_benchmark(cpu, name: str, **kwargs):
    benchmark = get_benchmark(name)
    return explore(
        cpu,
        benchmark.program(),
        max_cycles=benchmark.max_cycles,
        max_segments=benchmark.max_segments,
        **kwargs,
    )


def pair_oracle(tree, model: PowerModel):
    """Algorithm 2 one cycle at a time, on uint8 trits.

    Every cycle is the lone target of :func:`maximize_parity` (parity 1)
    on two rows: its raw predecessor — the parent's last cycle for a
    segment's first cycle, the cycle itself for the root's — and itself.
    Targets of one parity never share a row, so this is exactly what the
    plane engine computes for the cycle's parity.
    """
    flat = tree.flat_trace
    values = flat.values_matrix()
    active = flat.active_matrix()
    pred = np.arange(-1, len(flat) - 1)
    for segment in tree.segments:
        if not segment.n_cycles:
            continue
        if segment.parent is None:
            pred[segment.flat_start] = segment.flat_start
        else:
            parent = tree.segments[segment.parent[0]]
            pred[segment.flat_start] = parent.flat_start + parent.n_cycles - 1
    prev_rows = np.empty_like(values)
    cur_rows = np.empty_like(values)
    context = np.zeros_like(active[0])  # row 0 is never a target
    for cycle in range(len(flat)):
        prev_rows[cycle], cur_rows[cycle] = maximize_parity(
            values[[pred[cycle], cycle]],
            np.stack([context, active[cycle]]),
            1,
            model.max_prev,
            model.max_cur,
        )
    return model.transition_power(
        prev_rows, cur_rows, flat.mem_accesses(), per_module=True
    )


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


@pytest.fixture(scope="module", params=sorted(ALL_BENCHMARKS))
def explored(request, cpu):
    """(name, reference tree) per benchmark."""
    name = request.param
    return name, explore_benchmark(cpu, name, engine="reference")


@pytest.fixture(scope="module")
def peak(explored, model):
    """(name, tree, Algorithm 2 result) on the reference tree."""
    name, tree = explored
    return name, tree, compute_peak_power(tree, model)


class TestBatchedEqualsScalar:
    """Every batched engine rebuilds the scalar explorer's trees."""

    def test_execution_tree_bit_identical(self, explored):
        """The batched uint8 reference at its default width."""
        name, tree = explored
        assert tree.digest() == GOLDEN_TREES[name]["tree"]

    @pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
    def test_one_lane_batch_bit_identical(self, cpu, name, explore_lanes):
        """A one-lane batch is not another loop: lanes retire and refill
        one path at a time, and the replay still rebuilds the golden tree
        (native engine)."""
        explore_lanes(1)
        tree = explore_benchmark(cpu, name, engine="native")
        assert tree.digest() == GOLDEN_TREES[name]["tree"]

    def test_reference_batched_spot_check(self, cpu, explore_lanes):
        """The same one-lane probe on the uint8 reference (mult)."""
        explore_lanes(1)
        tree = explore_benchmark(cpu, "mult", engine="reference")
        assert tree.digest() == GOLDEN_TREES["mult"]["tree"]

    def test_analysis_matches_golden(self, peak):
        """Reference-engine analysis reproduces the pinned numbers."""
        name, tree, peak_power = peak
        benchmark = get_benchmark(name)
        peak_energy = compute_peak_energy(
            tree, peak_power, loop_bound=benchmark.loop_bound
        )
        golden = GOLDEN[name]
        assert len(tree.segments) == golden["n_segments"]
        assert tree.n_cycles == golden["n_cycles"]
        assert tree.n_memo_hits == golden["n_memo_hits"]
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
    """Algorithm 2 on packed planes ≡ its scalar references.

    The witness profiles must match the digests the per-segment scalar
    engine recorded, and every float must match the per-cycle pair
    oracle bit for bit: both price in exact integer attojoules, whose
    sums do not depend on row layout, chunking or row subsets.
    """

    @pytest.fixture(scope="class")
    def oracle(self, peak, model):
        name, tree, peak_power = peak
        return name, tree, peak_power, pair_oracle(tree, model)

    def test_peak_trace_bit_identical(self, oracle):
        _name, _tree, peak_power, reference = oracle
        assert np.array_equal(peak_power.trace_mw, reference.total_mw)
        assert peak_power.peak_cycle == reference.peak_cycle()
        assert peak_power.peak_power_mw == reference.peak()

    def test_c_pricer_equals_numpy_pricer(self, peak, model):
        """Both pricers on this benchmark's real Algorithm-2 stacks,
        integer for integer; the module columns sum to the total."""
        _name, tree, _peak_power = peak
        order, stacks = parity_stacks(tree, model)
        tables = model.bit_tables(order)
        assert tables.native is not None, "the C pricer did not load"
        for prev, cur in stacks:
            c, n = price_both(tables, prev, cur)
            assert np.array_equal(c, n)
            assert np.array_equal(c[:, 1:].sum(axis=1), c[:, 0])

    def test_even_odd_profiles_bit_identical(self, oracle):
        name, _tree, peak_power, _reference = oracle
        assert witness_digest(peak_power) == GOLDEN_TREES[name]["witness"]

    def test_module_breakdown_bit_identical(self, oracle):
        _name, _tree, peak_power, reference = oracle
        assert set(peak_power.module_mw) == set(reference.module_mw)
        for module, series in reference.module_mw.items():
            assert np.array_equal(peak_power.module_mw[module], series), module

    def test_segment_energies_bit_identical(self, oracle):
        name, tree, peak_power, reference = oracle
        expected = np.array([
            reference.total_mw[tree.segment_slice(segment)].sum()
            * peak_power.clock_ns
            for segment in tree.segments
        ])
        assert np.array_equal(peak_power.segment_energy_pj, expected)
        # a result without segment sums re-slices the trace instead
        resliced = PeakPowerResult(
            peak_power_mw=reference.peak(),
            peak_cycle=reference.peak_cycle(),
            trace_mw=reference.total_mw,
            module_mw=reference.module_mw,
            clock_ns=peak_power.clock_ns,
        )
        loop_bound = get_benchmark(name).loop_bound
        energies = [
            compute_peak_energy(tree, result, loop_bound=loop_bound)
            for result in (peak_power, resliced)
        ]
        assert energies[0].peak_energy_pj == energies[1].peak_energy_pj
        assert energies[0].path_segments == energies[1].path_segments


class TestGoldenCoverage:
    def test_all_benchmarks_pinned(self):
        assert set(GOLDEN) == set(ALL_BENCHMARKS)
        assert set(GOLDEN_TREES) == set(ALL_BENCHMARKS)
        for name, entry in GOLDEN_TREES.items():
            assert set(entry) == {"tree", "witness"}, name

    def test_suite_goldens_carry_exactly_the_summary_fields(self):
        for name, entry in GOLDEN.items():
            assert set(entry) == SUMMARY_FIELDS, name

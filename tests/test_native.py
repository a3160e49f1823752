"""Native C kernel engine: gate identity, surgery pins, fallback, cache.

The oracle chain is ISS -> reference -> native: every native claim here
is checked against the uint8 :class:`LevelizedEvaluator` (or against a
golden file the reference reproduces).  Four tiers, mirroring the
engine's soundness argument:

1. **Gate kernels, exhaustively**: every kind over every 3-valued input
   combination through the *lane-sliced batch run* (``repro_run``),
   one combination per lane, must match the scalar truth functions and a
   reference-engine batch; ``test_bitplane`` does the same for the
   single-machine settle (``repro_settle``), which runs the same gate
   passes on rows sliced into lanes.
2. **Schedule-surgery pins**: BUF/NOT chains collapse to a rail
   permutation of their root; the collapsed schedule must still produce
   reference values/activity for every input.
3. **Randomized equivalence**: random DAGs settle bit-identically to the
   reference in every leading shape, whatever the pad bits hold.  On all
   14 benchmarks the native engine reproduces the golden tree digest
   that ``test_differential`` holds the reference to, plus the golden
   analysis floats, which closes native ≡ reference; one direct
   native ≡ reference probe guards that argument itself.  The batch step
   is pinned against a reference-engine batch record for record.
4. **Degradation**: a monkeypatched compiler-less host falls back to the
   reference engine with exactly one warning and identical results.

The kernel source never depends on the netlist, so one shared object,
built once per process (about 0.1 s), serves the toy netlists and the
CPU alike.
"""

import collections
import itertools
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.bench.suite import ALL_BENCHMARKS, get_benchmark
from repro.cells import SG65
from repro.core.activity import explore
from repro.core.peakenergy import compute_peak_energy
from repro.core.peakpower import compute_peak_power
from repro.logic import X, ternary
from repro.netlist.core import Netlist
from repro.power.model import PowerModel
from repro.sim import native
from repro.netlist.program import NetlistProgram
from repro.sim.batch import BatchMachine
from repro.sim.bitplane import ENGINES, make_evaluator
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.machine import Machine, MemoryPorts, _MemRequest
from repro.sim.memory import TernaryMemory
from repro.sim.native import NativeEvaluator, NativeKernelError
from test_bitplane import TWO_INPUT_FUNCS, random_netlist, settle_sources
from test_differential import GOLDEN, GOLDEN_TREES, REL, explore_benchmark


@pytest.fixture()
def toy_cache(tmp_path, monkeypatch):
    """Route kernel builds to a throwaway cache (a kernel already loaded
    in this process is still reused)."""
    from repro.bench import runner

    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


@pytest.fixture()
def unloaded(toy_cache, monkeypatch):
    """No kernel loaded or compiling in this process (restored after)."""
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_BUILD", None)
    return toy_cache


def _as_reference(evaluator, snap: dict) -> dict:
    """A packed lane snapshot as the reference engine stores it."""
    planes = snap["values"]
    return dict(
        snap,
        values=evaluator.unpack_values(planes),
        prev_active=evaluator.unpack_active(planes),
    )


def _step_gate_lanes(netlist, assignments):
    """One batch step on both engines, one lane per ``{input: trit}``
    assignment; returns (native rows, reference rows), each a list of
    records read from its batch's arena.  Adds a
    ``dout`` INPUT and a tied-off memory port to *netlist*."""
    zero = netlist.add_gate("CONST0")
    dout = netlist.add_gate("INPUT")
    ports = MemoryPorts(addr=[zero], din=[zero], dout=[dout], we=zero, en=zero)
    packed = NativeEvaluator(netlist)
    snap = Machine(netlist, ports, packed).snapshot()
    records = []
    for evaluator, base in (
        (packed, snap),
        (LevelizedEvaluator(netlist), _as_reference(packed, snap)),
    ):
        batch = BatchMachine(netlist, ports, evaluator, len(assignments))
        for forced in assignments:
            batch.load(dict(base, forced_inputs=forced), {})
        records.append([batch.arena[row] for row in batch.step()])
    return records


# ----------------------------------------------------------------------
# Tier 1: the batch step kernel per gate kind, exhaustively
# ----------------------------------------------------------------------
class TestGeneratedGateKernelsExhaustive:
    """Every input combination of a kind is one lane of one step."""

    def test_two_input_kinds(self, toy_cache):
        netlist = Netlist()
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        outs = {
            kind: netlist.add_gate(kind, (a, b)) for kind in TWO_INPUT_FUNCS
        }
        combos = list(itertools.product((0, 1, X), repeat=2))
        fast, slow = _step_gate_lanes(
            netlist, [{a: va, b: vb} for va, vb in combos]
        )
        for (va, vb), got, want in zip(combos, fast, slow, strict=True):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.active, want.active)
            for kind, func in TWO_INPUT_FUNCS.items():
                assert got.values[outs[kind]] == func(va, vb), (kind, va, vb)

    def test_mux_all_27(self, toy_cache):
        netlist = Netlist()
        s = netlist.add_gate("INPUT")
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        y = netlist.add_gate("MUX", (s, a, b))
        combos = list(itertools.product((0, 1, X), repeat=3))
        fast, slow = _step_gate_lanes(
            netlist, [{s: vs, a: va, b: vb} for vs, va, vb in combos]
        )
        for (vs, va, vb), got, want in zip(combos, fast, slow, strict=True):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.active, want.active)
            assert got.values[y] == ternary.t_mux(vs, va, vb), (vs, va, vb)


# ----------------------------------------------------------------------
# Tier 2: BUF/NOT chain surgery
# ----------------------------------------------------------------------
def chain_netlist():
    """INPUT feeding a BUF/NOT ladder plus consumers at every depth."""
    netlist = Netlist()
    a = netlist.add_gate("INPUT")
    b = netlist.add_gate("INPUT")
    chain = [a]
    for kind in ("NOT", "BUF", "NOT", "NOT", "BUF"):
        chain.append(netlist.add_gate(kind, (chain[-1],)))
    # consumers of mid-chain taps keep every element live
    taps = [netlist.add_gate("AND", (net, b)) for net in chain[1:]]
    dff = netlist.add_gate("DFF", (chain[-1],))
    return netlist, a, b, chain, taps, dff


class TestScheduleSurgery:
    def test_chain_resolution(self):
        netlist, a, _b, chain, _taps, _dff = chain_netlist()
        program = NetlistProgram(netlist)
        # every ladder element resolves to the input with the parity of
        # the NOTs between them (1, 1, 0, 1, 1 along this ladder)
        parities = [1, 1, 0, 1, 1]
        for net, parity in zip(chain[1:], parities):
            assert program.chain_of[net] == (a, parity), net
        # the root memoizes as its own fixed point
        assert program.chain_of.get(a, (a, 0)) == (a, 0)

    def test_ulp430_runs_pack_back_to_back(self, cpu):
        """A lane slot is a bit position of the packed order, and the gate
        runs hold no whole pad byte between them."""
        evaluator = cpu.evaluator_for("native")
        program = evaluator.program
        assert np.array_equal(evaluator.lanes.slot_of, program.pos_of)
        first_gate = int(program.pos_of[program.runs[0].gates[0]])
        live = program.valid_mask.view(np.uint8)[
            first_gate >> 3 : (int(program.pos_of.max()) >> 3) + 1
        ]
        assert live.all()

    def test_chain_values_native(self, toy_cache):
        netlist, a, b, chain, taps, _dff = chain_netlist()
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        funcs = (
            ternary.t_not, ternary.t_buf, ternary.t_not,
            ternary.t_not, ternary.t_buf,
        )
        for va, vb in itertools.product((0, 1, X), repeat=2):
            expected, got = settle_sources(
                evaluator, reference, {a: va, b: vb}
            )
            assert np.array_equal(got, expected)
            value = va
            for func, net in zip(funcs, chain[1:]):
                value = func(value)
                assert got[net] == value
        assert all(got[t] in (0, 1, X) for t in taps)

    def test_chain_activity_matches_reference(self, toy_cache):
        netlist, _a, _b, _chain, _taps, _dff = chain_netlist()
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        rng = np.random.default_rng(17)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        for _ in range(12):
            prev = rng.integers(0, 3, size=netlist.n_nets, dtype=np.uint8)
            reference.eval_comb(prev)
            prev_active = rng.integers(0, 2, size=netlist.n_nets).astype(bool)
            cur = prev.copy()
            cur[sources] = rng.integers(0, 3, size=len(sources), dtype=np.uint8)
            reference.eval_comb(cur)
            expected_active = reference.compute_activity(
                prev, cur, prev_active
            )
            planes = evaluator.pack_state(prev, prev_active)
            evaluator.stash_prev(planes)
            for net in sources:
                evaluator.write_trit(planes, net, int(cur[net]))
            evaluator.settle_and_mark(planes)
            assert np.array_equal(evaluator.unpack_values(planes), cur)
            assert np.array_equal(
                evaluator.unpack_active(planes), expected_active
            )


# ----------------------------------------------------------------------
# Tier 3: randomized netlists and whole benchmark trees
# ----------------------------------------------------------------------
class TestRandomizedNativeEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_settles_match_bitplane(self, seed, toy_cache):
        """The settled bit planes, unpacked, are the reference's values
        and activity in every leading shape, and their memo fingerprint
        is that of the reference row packed."""
        rng = np.random.default_rng(500 + seed)
        netlist = random_netlist(230 + 17 * seed, seed=40 + seed)
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        for lead in ((), (3,), (8,)):
            prev = rng.integers(
                0, 3, size=lead + (netlist.n_nets,), dtype=np.uint8
            )
            prev[..., reference.const0_nets] = 0
            prev[..., reference.const1_nets] = 1
            reference.eval_comb(prev)  # activity compares settled states
            prev_active = rng.integers(
                0, 2, size=lead + (netlist.n_nets,)
            ).astype(bool)
            new_sources = rng.integers(
                0, 3, size=lead + (len(sources),), dtype=np.uint8
            )
            cur = prev.copy()
            cur[..., sources] = new_sources
            reference.eval_comb(cur)
            active = reference.compute_activity(prev, cur, prev_active)

            planes = evaluator.pack_state(prev, prev_active)
            evaluator.stash_prev(planes)
            flat = planes.reshape((-1,) + planes.shape[-2:])
            flat_sources = new_sources.reshape(-1, len(sources))
            for row in range(flat.shape[0]):
                for net, value in zip(sources, flat_sources[row]):
                    evaluator.write_trit(flat[row], net, int(value))
            evaluator.settle_and_mark(planes)
            assert np.array_equal(evaluator.unpack_values(planes), cur), lead
            assert np.array_equal(evaluator.unpack_active(planes), active)
            # pads and the zero bit included: the settle leaves them as
            # packed, a known 0
            assert np.array_equal(
                planes, evaluator.pack_state(cur, active)
            ), lead
            for row, values in zip(flat, cur.reshape(-1, netlist.n_nets)):
                assert evaluator.state_bytes(row) == evaluator.state_bytes(
                    evaluator.pack_state(values)
                )

    def test_rejects_planes_of_another_shape(self, cpu):
        evaluator = cpu.evaluator_for("native")
        with pytest.raises(ValueError, match="uint64 planes"):
            evaluator.settle_and_mark(
                np.zeros((2, 3, evaluator.n_words - 1), dtype=np.uint64)
            )
        with pytest.raises(ValueError, match="uint64 planes"):
            evaluator.settle_and_mark(evaluator.fresh_planes().view(np.int64))

    @pytest.mark.parametrize("lead", [(), (1,), (8,), (32,), (65,)])
    def test_raw_random_planes_match_bitplane(self, lead, toy_cache, cpu):
        """Random words in every pad bit and in the whole A plane (only
        the zero bit keeps its known 0) settle the CPU's real nets exactly
        as the reference does: no gate reads a pad.  65 rows cross the
        settle's 64-row groups."""
        rng = np.random.default_rng(70 + sum(lead))
        evaluator = cpu.evaluator_for("native")
        reference = cpu.evaluator
        n_nets = cpu.netlist.n_nets
        shape = lead + (3, evaluator.n_words)
        states = []
        for settled in (True, False):  # the previous cycle, then this one
            values = rng.integers(0, 3, size=lead + (n_nets,), dtype=np.uint8)
            values[..., reference.const0_nets] = 0
            values[..., reference.const1_nets] = 1
            if settled:  # activity compares settled states
                reference.eval_comb(values)
            planes = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            valid = evaluator.program.valid_mask
            planes[..., 0:2, :] &= ~valid
            planes[..., 0:2, :] |= evaluator.pack_state(values)[..., 0:2, :] & valid
            planes[..., :, 0] &= ~np.uint64(1)  # the zero bit: P=0, A=0
            planes[..., 1, 0] |= np.uint64(1)  # N=1
            states.append((values, planes))
        (prev_values, prev), (cur_values, planes) = states
        prev_active = evaluator.unpack_active(prev)
        expected = cur_values.copy()
        reference.eval_comb(expected)
        active = reference.compute_activity(prev_values, expected, prev_active)
        evaluator.stash_prev(prev)
        evaluator.settle_and_mark(planes)
        assert np.array_equal(evaluator.unpack_values(planes), expected)
        assert np.array_equal(evaluator.unpack_active(planes), active)


@pytest.fixture(scope="module", params=sorted(ALL_BENCHMARKS))
def native_tree(request, cpu):
    """(name, native tree) per benchmark, real kernel."""
    name = request.param
    return name, explore_benchmark(cpu, name, engine="native")


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


class TestBenchmarkTreesIdentical:
    def test_native_runs_native(self, cpu):
        """The environment has a compiler: the suite must not silently
        pin a fallen-back reference evaluator as "native"."""
        evaluator = cpu.evaluator_for("native")
        assert getattr(evaluator, "engine_name", None) == "native"

    def test_execution_tree_bit_identical(self, native_tree):
        name, tree = native_tree
        assert tree.digest() == GOLDEN_TREES[name]["tree"]

    def test_analysis_matches_golden(self, native_tree, model):
        """Native-engine analysis reproduces the pinned numbers."""
        name, tree = native_tree
        benchmark = get_benchmark(name)
        peak_power = compute_peak_power(tree, model)
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

    @pytest.mark.parametrize("batch_size", [1, 64, 65])
    @pytest.mark.parametrize("name", ["inSort", "tHold"])
    def test_lane_widths_match_golden(
        self, cpu, name, batch_size, explore_lanes
    ):
        """One lane, a full 64-lane word, and a second lane group."""
        explore_lanes(batch_size)
        tree = explore_benchmark(cpu, name, engine="native")
        assert tree.digest() == GOLDEN_TREES[name]["tree"]

    def test_native_equals_reference_directly(self, cpu, monkeypatch):
        """One one-lane reference probe on mult pins the transitivity
        argument without going through the golden file."""
        from repro.core import activity

        monkeypatch.setattr(activity, "DEFAULT_BATCH_SIZE", 1)
        reference = explore_benchmark(cpu, "mult", engine="reference")
        native_tree = explore_benchmark(cpu, "mult", engine="native")
        assert native_tree.digest() == reference.digest()


# ----------------------------------------------------------------------
# Tier 4: compiler-less degradation
# ----------------------------------------------------------------------
def _assert_mult_golden(report) -> None:
    assert report.tree.digest() == GOLDEN_TREES["mult"]["tree"]
    golden = GOLDEN["mult"]
    assert report.peak_power.peak_cycle == golden["peak_cycle"]
    assert report.peak_power_mw == pytest.approx(
        golden["peak_power_mw"], rel=REL
    )
    assert report.peak_energy_pj == pytest.approx(
        golden["peak_energy_pj"], rel=REL
    )


class TestFallback:
    def test_no_compiler_falls_back_with_one_warning(
        self, unloaded, monkeypatch
    ):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._reset_fallback_warning()
        netlist = random_netlist(180, seed=61)
        with pytest.warns(
            RuntimeWarning, match="unavailable .* falling back to the reference"
        ):
            evaluator = native.evaluator_or_fallback(netlist)
        # the fallback is the oracle itself: results are the reference's
        assert type(evaluator) is LevelizedEvaluator
        # the second degradation in the same process stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = native.evaluator_or_fallback(netlist)
        assert type(again) is LevelizedEvaluator
        native._reset_fallback_warning()

    def test_no_compiler_cpu_explores_on_its_reference(
        self, unloaded, monkeypatch, cpu
    ):
        """A compiler-less host: ``analyze(mult)`` runs on the CPU's own
        reference evaluator at the reference batch width under exactly
        one warning (engine and pricer together) and reproduces the
        goldens."""
        from repro.core.activity import DEFAULT_BATCH_SIZE
        from repro.core.api import analyze
        from repro.cpu.core import Ulp430

        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._reset_fallback_warning()
        fresh = Ulp430(cpu.netlist, cpu.ports, cpu.nets)  # nothing cached
        widths = []
        init = BatchMachine.__init__

        def spy(self, netlist, ports, evaluator, batch_size, **kwargs):
            widths.append((type(evaluator), batch_size))
            init(self, netlist, ports, evaluator, batch_size, **kwargs)

        monkeypatch.setattr(BatchMachine, "__init__", spy)
        benchmark = get_benchmark("mult")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = analyze(
                fresh, benchmark.program(),
                PowerModel(fresh.netlist, SG65, clock_ns=10.0),
                loop_bound=benchmark.loop_bound,
                max_cycles=benchmark.max_cycles,
                max_segments=benchmark.max_segments,
            )
        native._reset_fallback_warning()
        hits = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(hits) == 1, [str(w.message) for w in hits]
        assert "falling back to the reference engine" in str(hits[0].message)
        assert fresh.evaluator_for("native") is fresh.evaluator
        assert widths == [(LevelizedEvaluator, DEFAULT_BATCH_SIZE)]
        _assert_mult_golden(report)

    def test_no_compiler_with_prebuilt_schedule(
        self, unloaded, monkeypatch, cpu
    ):
        """The CPU's prebuilt gate schedule changes nothing about the
        degradation: the CPU's reference evaluator under the one
        warning, and ``analyze(mult)`` reproduces the goldens."""
        from repro.core.api import analyze
        from repro.cpu.core import Ulp430

        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._reset_fallback_warning()
        fresh = Ulp430(cpu.netlist, cpu.ports, cpu.nets)  # nothing cached
        schedule = fresh.gate_schedule()
        benchmark = get_benchmark("mult")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluator = native.evaluator_or_fallback(
                fresh.netlist, lambda: fresh.evaluator, schedule
            )
            report = analyze(
                fresh, benchmark.program(),
                PowerModel(fresh.netlist, SG65, clock_ns=10.0),
                loop_bound=benchmark.loop_bound,
                max_cycles=benchmark.max_cycles,
                max_segments=benchmark.max_segments,
            )
        native._reset_fallback_warning()
        hits = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(hits) == 1, [str(w.message) for w in hits]
        assert "falling back to the reference engine" in str(hits[0].message)
        assert evaluator is fresh.evaluator
        assert fresh.evaluator_for("native") is fresh.evaluator
        assert fresh.gate_schedule() is schedule
        _assert_mult_golden(report)

    def test_no_compiler_prices_with_numpy(self, unloaded, monkeypatch):
        """Pricing degrades with the engine: the numpy pricer takes over,
        the two fallbacks warn once between them, and the power is what
        the C pricer computes."""
        find_compiler = native.find_compiler
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._reset_fallback_warning()
        netlist = random_netlist(180, seed=64)
        values = np.random.default_rng(4).integers(
            0, 3, size=(70, netlist.n_nets), dtype=np.uint8
        )
        model = PowerModel(netlist, SG65)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            native.evaluator_or_fallback(netlist)
            fallback = model.trace_power(values, per_module=True)
            model.trace_power(values[::-1])
        hits = [w for w in caught if "native engine unavailable" in str(w.message)]
        assert len(hits) == 1
        assert all(tables.native is None for tables in model._bit_tables.values())
        native._reset_fallback_warning()

        monkeypatch.setattr(native, "find_compiler", find_compiler)
        compiled = PowerModel(netlist, SG65)
        power = compiled.trace_power(values, per_module=True)
        assert all(t.native is not None for t in compiled._bit_tables.values())
        assert np.array_equal(power.total_mw, fallback.total_mw)
        for module, series in power.module_mw.items():
            assert np.array_equal(fallback.module_mw[module], series), module

    def test_failing_compiler_warning_names_the_exit_status(
        self, unloaded, monkeypatch
    ):
        """A compiler that fails silently (``CC=false``) still gives the
        fallback warning a reason: its exit status."""
        monkeypatch.setenv("CC", "false")
        native._reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            evaluator = native.evaluator_or_fallback(random_netlist(120, seed=61))
        native._reset_fallback_warning()
        assert type(evaluator) is LevelizedEvaluator
        [warning] = [w for w in caught if "falling back" in str(w.message)]
        message = str(warning.message)
        reason = message[message.index("(") + 1 : message.index("); falling")]
        assert reason == "C compile failed (false, exit status 1)"

    def test_build_failure_raises_kernel_error(self, unloaded, monkeypatch):
        monkeypatch.setattr(native, "SOURCE", "#error simulated breakage\n")
        netlist = random_netlist(160, seed=62)
        with pytest.raises(NativeKernelError, match="simulated breakage"):
            NativeEvaluator(netlist)
        assert not list(unloaded.glob("native/*")), "scratch files left"
        native._reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back"):
            evaluator = native.evaluator_or_fallback(netlist)
        assert type(evaluator) is LevelizedEvaluator
        native._reset_fallback_warning()


# ----------------------------------------------------------------------
# Plumbing: every engine-name surface knows "native"
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_engines_tuple(self):
        assert ENGINES == ("native", "reference")

    def test_make_evaluator_native(self, toy_cache):
        netlist = random_netlist(140, seed=63)
        evaluator = make_evaluator(netlist, engine="native")
        assert isinstance(evaluator, NativeEvaluator)

    def test_unknown_engine_lists_all_names(self, cpu):
        for engine in ("verilator", "bitplane"):
            with pytest.raises(ValueError) as err:
                cpu.evaluator_for(engine)
            for name in ENGINES:
                assert name in str(err.value)

    def test_cli_rejects_bitplane_listing_both(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["conformance", "--engine", "bitplane"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'native'" in err and "'reference'" in err

    def test_repro_engine_env(self, cpu, monkeypatch):
        """The variable that once picked the engine is ignored, valid or
        not: ``None`` is the CPU's native evaluator."""
        from repro.sim.bitplane import default_engine

        for raw in ("reference", "simulink"):
            monkeypatch.setenv("REPRO_ENGINE", raw)
            assert default_engine() == "native"
            assert cpu.evaluator_for(None) is cpu.evaluator_for("native")
            assert isinstance(cpu.evaluator_for(None), NativeEvaluator)

    def test_native_batches_like_bitplane(self):
        """The native width is the packed batch width; the reference
        engine keeps its own."""
        from repro.core.activity import (
            DEFAULT_BATCH_SIZE,
            NATIVE_DEFAULT_BATCH_SIZE,
            default_batch_size,
        )

        assert default_batch_size("native") == NATIVE_DEFAULT_BATCH_SIZE
        assert default_batch_size("reference") == DEFAULT_BATCH_SIZE

    def test_cli_accepts_native(self):
        """Only ``conformance`` names an engine (``test_cli`` pins that
        every other command refuses ``--engine``)."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["conformance", "--engine", "native"])
        assert args.engine == "native"

    def test_service_normalize_params(self):
        """Analysis jobs take no engine, valid or not; a conformance job
        still names one of ``ENGINES`` (or all of them)."""
        from repro.service.scheduler import normalize_params

        for kind in ("analyze", "profile"):
            params = normalize_params(kind, {"benchmark": "mult"})
            assert params == {"benchmark": "mult"}
            for engine in ("native", "reference", "bitplane", None):
                with pytest.raises(ValueError, match="engine"):
                    normalize_params(
                        kind, {"benchmark": "mult", "engine": engine}
                    )
        params = normalize_params("conformance", {"engine": "native"})
        assert params["engine"] == "native"
        with pytest.raises(ValueError) as err:
            normalize_params("conformance", {"engine": "bitplane"})
        for name in ENGINES:
            assert name in str(err.value)


# ----------------------------------------------------------------------
# Kernel cache behavior
# ----------------------------------------------------------------------
class TestKernelCache:
    def test_one_library_serves_every_netlist(self, toy_cache, cpu):
        """One build per process: a toy netlist and the CPU settle
        through the same loaded library, each with its own tables."""
        toy = NativeEvaluator(random_netlist(150, seed=64))
        real = cpu.evaluator_for("native")
        assert toy.kernel is real.kernel is native.load_kernel()
        assert real.kernel.digest == native.kernel_digest(
            native.find_compiler()
        )
        assert toy.lanes.table.nw != real.lanes.table.nw

    def test_default_engine_is_native(self, cpu):
        assert isinstance(cpu.evaluator_for(None), NativeEvaluator)

    def test_cold_build_then_cached_load(self, unloaded):
        native.start_build()  # the compiler runs in the background
        assert native._BUILD is not None and native._BUILD.thread is not None
        kernel = native.load_kernel()
        assert kernel.build_s > 0.0
        assert kernel.path.parent == unloaded / "native"
        assert [p.name for p in kernel.path.parent.iterdir()] == [
            kernel.path.name
        ]
        # a new process (simulated) dlopens the cached object, no compile
        native._KERNEL = None
        again = native.load_kernel()
        assert again.path == kernel.path and again.build_s == 0.0

    def test_digest_tracks_source_flags_and_compiler(self, monkeypatch):
        base = native.kernel_digest(["cc"])
        assert native.kernel_digest(["cc"]) == base
        assert native.kernel_digest(["clang"]) != base
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-g",))
        assert native.kernel_digest(["cc"]) != base
        monkeypatch.undo()
        monkeypatch.setattr(native, "SOURCE", native.SOURCE + "\n")
        assert native.kernel_digest(["cc"]) != base


# ----------------------------------------------------------------------
# Threads sharing one CPU (a JobScheduler(backend="thread")'s job slots)
# ----------------------------------------------------------------------
THREADED = ("mult", "FFT", "intAVG", "tea8")


@pytest.mark.parametrize("engine", ["native"])
def test_threads_exploring_on_one_cpu_match_serial(engine, cpu):
    def run(name):
        benchmark = get_benchmark(name)
        return explore(
            cpu,
            benchmark.program(),
            max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments,
            engine=engine,
        ).digest()

    serial = {name: run(name) for name in THREADED}
    barrier = threading.Barrier(len(THREADED))
    threaded: dict[str, object] = {}

    def worker(name):
        barrier.wait()
        try:
            threaded[name] = run(name)
        except Exception as exc:  # surfaced by the assert below
            threaded[name] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(name,)) for name in THREADED
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == serial


# ----------------------------------------------------------------------
# The batch step kernel against a reference-engine batch, record for record
# ----------------------------------------------------------------------
def _fork_snapshots(cpu, name: str, count: int) -> list[dict]:
    """*count* lane snapshots spread over the exploration of *name*: the
    states the explorer forks from, on every path of the tree."""
    snapshots = []
    record = BatchMachine.snapshot

    def snapshot(self, lane, **kwargs):
        snapshots.append(record(self, lane, **kwargs))
        return snapshots[-1]

    benchmark = get_benchmark(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchMachine, "snapshot", snapshot)
        explore(
            cpu, benchmark.program(), max_cycles=benchmark.max_cycles,
            max_segments=benchmark.max_segments, engine="native",
        )
    return snapshots[:: max(1, len(snapshots) // count)]


def _churn(netlist, ports, engines, snapshots, variant, lanes, seed,
           steps=24):
    """Drive a native batch and a reference-engine batch through the same
    random load / retire / refill churn and compare every step: records
    (values, activity and the packed words, pads included), memory
    counts, the post-step rows, memo ``state_bytes``, each lane's latched
    memory request and memory, and the pads of both lane-sliced
    buffers."""
    packed, reference = engines

    def fresh():
        return [
            BatchMachine(netlist, ports, ev, lanes)
            for ev in engines
        ]

    batches = fresh()
    assert batches[0].kernel is not None and batches[1].kernel is None
    program = packed.program
    pads = np.unpackbits(program.valid_mask.view(np.uint8), bitorder="little") == 0
    rng = np.random.default_rng(seed)
    stepped = 0
    for _ in range(steps):
        fast, slow = batches
        for _ in range(min(fast.n_free, int(rng.integers(1, lanes // 2 + 3)))):
            snap, forces = variant(rng, snapshots[rng.integers(len(snapshots))])
            fast.load(snap, forces)
            slow.load(_as_reference(packed, snap), forces)
        outcomes = []
        for batch in batches:
            try:
                outcomes.append(batch.step())
            except Exception as exc:  # e.g. a store to an X address
                outcomes.append(type(exc))
        if not all(isinstance(out, range) for out in outcomes):
            assert outcomes[0] == outcomes[1]
            batches = fresh()  # a failed step leaves lanes half-latched
            continue
        stepped += len(fast.lanes)
        ta, tb = (batch.arena.view(out) for batch, out in zip(batches, outcomes))
        assert len(ta) == len(tb) == len(fast.lanes)
        assert np.array_equal(ta.cycles(), tb.cycles())
        assert np.array_equal(ta.mem_accesses(), tb.mem_accesses())
        assert np.array_equal(ta.values_matrix(), tb.values_matrix())
        assert np.array_equal(ta.active_matrix(), tb.active_matrix())
        assert np.array_equal(
            ta.values_matrix(packed=True), program.pack_values(tb.values_matrix())
        )
        assert np.array_equal(
            ta.active_matrix(packed=True), program.pack_active(tb.active_matrix())
        )
        n = len(fast.lanes)
        assert np.array_equal(
            fast.planes[:n],
            packed.pack_state(slow.values[:n], slow._prev_active[:n]),
        )
        # a rewritten row is re-read into the last cycle's buffer only:
        # the pads of every lane are a known 0 in both buffers
        state = fast.kernel.state[..., pads]
        assert (state[:, :, 1] == ~np.uint64(0)).all()
        assert not state[:, :, 0::2].any()
        for la, lb in zip(fast.lanes, slow.lanes):
            assert vars(la._request) == vars(lb._request)
            assert (la.dout_value, la.dout_xmask) == (lb.dout_value, lb.dout_xmask)
            assert la.memory.digest() == lb.memory.digest()
            assert packed.state_bytes(fast.planes[la.row]) == (
                packed.state_bytes(packed.pack_state(slow.values[lb.row]))
            )
        for la, lb in list(zip(fast.lanes, slow.lanes)):
            if rng.random() < 0.2:
                fast.retire(la)
                slow.retire(lb)
    return stepped


@pytest.fixture(scope="module")
def fork_snapshots(cpu):
    return _fork_snapshots(cpu, "binSearch", 120) + _fork_snapshots(
        cpu, "tHold", 120
    )


def _cpu_variant(cpu, unusual=False):
    """Random lane set-ups around a CPU snapshot: one-shot flag loads (as
    a fork applies them), forced inputs with Xs, partly-X dout words;
    *unusual* adds a pending read with an X enable or from an X address,
    and an X in the FSM state."""
    port_in = [int(net) for net in cpu.nets.port_in]
    flags = [int(cpu.flag_dff_for(bit)) for bit in range(2)]
    program = cpu.evaluator_for("native").program

    def variant(rng, snap):
        snap, forces = dict(snap), {}
        # 3: rarely, as most X fetches stall the CPU
        kind = rng.integers(11 if unusual else 8)
        if kind == 1:
            forces = {net: int(rng.integers(2)) for net in flags}
        elif kind == 2:
            snap["forced_inputs"] = {
                net: int(rng.choice([0, 1, X])) for net in port_in
            }
        elif kind == 3:
            snap["dout_value"] = int(rng.integers(1 << 16))
            snap["dout_xmask"] = int(rng.integers(1 << 16)) & 0x0300
        elif kind == 10:  # an X in the FSM state
            pos = int(program.pos_of[cpu.nets.state_q[rng.integers(3)]])
            snap["values"] = values = snap["values"].copy()
            values[:2, pos >> 6] |= np.uint64(1 << (pos & 63))
        elif kind >= 8:
            request = snap["request"]
            snap["request"] = _MemRequest(
                request.addr, request.addr_known, X, 0,
                request.din_value, request.din_xmask,
            ) if kind == 8 else _MemRequest(None, False, 1, 0)
        return snap, forces

    return variant


@pytest.fixture(scope="module")
def cpu_points(cpu):
    """CPU states inside path segments: short scalar walks from the
    loads of binSearch's and tHold's explorations, stopping before a
    halt or an X PC."""
    rng = np.random.default_rng(7)
    points = []
    for snap in _fork_snapshots(cpu, "binSearch", 40) + _fork_snapshots(
        cpu, "tHold", 40
    ):
        machine = Machine(cpu.netlist, cpu.ports, cpu.evaluator_for("native"))
        machine.restore(snap)
        for _ in range(int(rng.integers(0, 40))):
            machine.step()
            if cpu.halted(machine) or cpu.pc_next_unknown(machine):
                break
        else:
            points.append(machine.snapshot())
    return points


def _toy_system(seed: int):
    """A random DAG with DFFs wired to a 4-word memory: ``dout`` and the
    address are INPUTs, the write enable an INPUT forced to 0, 1 or X, so
    stores are certain or uncertain (``we == X``) at known addresses."""
    netlist = random_netlist(260, seed=seed)
    gates = [g.index for g in netlist.gates if g.kind not in ("INPUT", "DFF")]
    ports = MemoryPorts(
        addr=[3, 4], din=gates[-4:], dout=[0, 1, 2], we=5, en=6
    )
    engines = (NativeEvaluator(netlist), LevelizedEvaluator(netlist))
    rng = np.random.default_rng(seed)
    snapshots = []
    for _ in range(6):
        machine = Machine(netlist, ports, engines[0], TernaryMemory(n_words=4))
        machine.forced_inputs = {3: 0, 4: 1, 5: X, 6: 1}
        machine.reset_sequence()
        for _ in range(int(rng.integers(1, 6))):
            machine.step()
        snapshots.append(machine.snapshot())

    def variant(rng, snap):
        snap = dict(snap)
        snap["forced_inputs"] = {
            3: int(rng.integers(2)), 4: int(rng.integers(2)),
            5: int(rng.choice([0, 1, X])), 6: int(rng.choice([0, 1, X])),
            7: int(rng.choice([0, 1, X])),
        }
        snap["dout_xmask"] = int(rng.integers(8))
        dffs = netlist.dff_indices()
        forces = {dffs[0]: int(rng.integers(2))} if rng.random() < 0.3 else {}
        return snap, forces

    return netlist, ports, engines, snapshots, variant


class TestBatchStepKernel:
    @pytest.mark.parametrize("lanes", [1, 31, 64, 65])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cpu_matches_python_packed_step(
        self, cpu, fork_snapshots, lanes, seed
    ):
        """The CPU's native batch against its reference-engine batch."""
        engines = (cpu.evaluator_for("native"), cpu.evaluator)
        stepped = _churn(
            cpu.netlist, cpu.ports, engines, fork_snapshots, _cpu_variant(cpu),
            lanes, seed,
        )
        assert stepped >= 16

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_toy_memory_system_matches(self, toy_cache, seed):
        """Uncertain (``we == X``) and certain stores, X forced inputs,
        one-shot DFF loads, across groups of 64 lanes."""
        netlist, ports, engines, snapshots, variant = _toy_system(seed)
        stepped = _churn(
            netlist, ports, engines, snapshots, variant, 70, seed, steps=16
        )
        assert stepped >= 16

    def test_toy_reaches_uncertain_writes(self, toy_cache):
        netlist, ports, engines, snapshots, _variant = _toy_system(2)
        batch = BatchMachine(netlist, ports, engines[0], 2)
        lane = batch.load(snapshots[0], {})
        batch.step()
        assert lane._request.we == X and lane._request.addr_known


def _counter_system():
    """A 4-bit counter wired to a 4-word memory, so lanes change what
    they do from cycle to cycle: the count addresses a word every cycle
    (XORed with the ``ax`` input: X there reads from an X address), the
    enable is 1 on even counts and the ``en`` input (0, 1 or X) on odd
    ones, and counts 6 and 14 store, certainly or not, by the ``we``
    input.  A data register XORs the word read into the count.  The
    stop rules: the count is 13 (a "halt"), the data holds an X (a
    "fork").  Returns the system, its stop rules, its engines, its
    snapshots, their variant and the fork rule's nets."""
    netlist = Netlist()
    dout = [netlist.add_gate("INPUT") for _ in range(3)]
    en_in, we_in, ax_in = (netlist.add_gate("INPUT") for _ in range(3))
    zero, one = netlist.add_gate("CONST0"), netlist.add_gate("CONST1")
    count = [netlist.add_gate("DFF", (zero,)) for _ in range(4)]
    data = [netlist.add_gate("DFF", (zero,)) for _ in range(2)]
    carry = one
    for bit in count:
        netlist.gates[bit].inputs = (netlist.add_gate("XOR", (bit, carry)),)
        carry = netlist.add_gate("AND", (bit, carry))
    for bit, word, mix in zip(data, dout, count):
        netlist.gates[bit].inputs = (netlist.add_gate("XOR", (word, mix)),)
    even = netlist.add_gate("NOT", (count[0],))
    store = netlist.add_gate("AND", (count[1], count[2]))
    ports = MemoryPorts(
        addr=[
            netlist.add_gate("XOR", (count[0], ax_in)),
            netlist.add_gate("BUF", (count[1],)),
        ],
        din=[*data, netlist.add_gate("XOR", (count[3], dout[2])), count[2]],
        dout=dout,
        we=netlist.add_gate(
            "AND", (store, netlist.add_gate("AND", (even, we_in)))
        ),
        en=netlist.add_gate("MUX", (count[0], one, en_in)),
    )
    stops = [(count, 13), (data, None)]
    engines = (NativeEvaluator(netlist), LevelizedEvaluator(netlist))
    snapshots = []
    for cycles in range(16):
        memory = TernaryMemory(n_words=4)
        for addr, (value, xmask) in enumerate(
            [(5, 0), (0, 0xFFFF), (3, 0), (6, 0x0002)]
        ):
            memory.load_word(addr, value, xmask)
        machine = Machine(netlist, ports, engines[0], memory)
        machine.forced_inputs = {en_in: 1, we_in: 0, ax_in: 0}
        machine.reset_sequence()
        for _ in range(cycles):
            machine.step()
        snapshots.append(machine.snapshot())

    def variant(rng, snap):
        snap = dict(snap)
        ax = int(rng.choice([0, 0, 0, X]))
        snap["forced_inputs"] = {
            en_in: int(rng.choice([0, 1, X])),
            # a store to an X address is refused: keep those lanes apart
            we_in: 0 if ax == X else int(rng.choice([0, 1, X])),
            ax_in: ax,
        }
        forces = {count[3]: int(rng.integers(2))} if rng.random() < 0.3 else {}
        return snap, forces

    return netlist, ports, stops, engines, snapshots, variant, data


def _assert_same_rows(program, traces) -> None:
    """Arena rows of native batches and of a reference batch (last):
    cycles, memory counts, values and activity, pads included."""
    *packed, reference = traces
    values = program.pack_values(reference.values_matrix())
    active = program.pack_active(reference.active_matrix())
    for trace in packed:
        assert len(trace) == len(reference)
        assert np.array_equal(trace.cycles(), reference.cycles())
        assert np.array_equal(trace.mem_accesses(), reference.mem_accesses())
        assert np.array_equal(trace.values_matrix(packed=True), values)
        assert np.array_equal(trace.active_matrix(packed=True), active)


def _assert_same_snapshot(packed, snaps) -> None:
    """Snapshots of one state from native batches and a reference batch."""
    *natives, reference = snaps
    planes = packed.pack_state(reference["values"], reference["prev_active"])
    for snap in natives:
        assert np.array_equal(snap["values"], planes)
        assert snap["memory"].digest() == reference["memory"].digest()
        assert vars(snap["request"]) == vars(reference["request"])
        for key in ("cycle", "dout_value", "dout_xmask", "forced_inputs",
                    "next_dff_forces"):
            assert snap[key] == reference[key], key


def _run_churn(netlist, ports, stops, engines, snapshots, variant, lanes,
               seed, fork_nets, rounds=24, longest=8):
    """Drive three batches through the same load / run / retire churn: a
    native batch making one multi-cycle call of up to *longest* steps per
    round,
    a native batch making one-cycle calls for as many steps, and a
    reference batch making the same multi-cycle call.  Every round they
    must record the same arena rows, meta included, leave every lane in
    the same state and rebuild the same state from before each lane's
    last step (the one a fork re-runs), which the one-cycle batch
    snapshots directly.  Returns the events the rounds reached."""
    packed, reference = engines

    def fresh():
        return [
            BatchMachine(netlist, ports, ev, lanes, stops=stops)
            for ev in (packed, packed, reference)
        ]

    batches = fresh()
    rng = np.random.default_rng(seed)
    events = collections.Counter()
    for _ in range(rounds):
        fast, single, slow = batches
        if fast.lanes and fast.n_free:
            events["refill"] += 1
        for _ in range(min(fast.n_free, int(rng.integers(1, lanes // 2 + 3)))):
            snap, forces = variant(rng, snapshots[rng.integers(len(snapshots))])
            for batch in (fast, single):
                batch.load(snap, forces)
            slow.load(_as_reference(packed, snap), forces)
        live = len(fast.lanes)
        for lane in fast.lanes:
            request = lane._request
            if request.en == X:
                events["enable-X read"] += 1
            if request.en != 0 and not request.addr_known:
                events["X-address read"] += 1
        k = int(rng.integers(1, longest + 1))
        try:
            rows = fast.step(k)
        except Exception as exc:  # e.g. a store to an X address
            for batch in (single, slow):
                with pytest.raises(type(exc)):
                    batch.step(k)
            events["error"] += 1
            batches = fresh()  # a failed step leaves lanes half-latched
            continue
        taken = len(rows) // live
        single_rows = []
        for _ in range(taken):
            before = [single.snapshot(lane) for lane in single.lanes]
            single_rows += single.step()
        slow_rows = slow.step(k)
        _assert_same_rows(packed.program, [
            fast.arena.view(rows), single.arena.view(single_rows),
            slow.arena.view(slow_rows),
        ])
        forking = fast.peek_bus(fork_nets)[1] != 0
        stored = [lane._request.we for lane in fast.lanes]
        if taken < k:
            events["stopped early"] += 1
        if 1 in stored:
            events["store"] += 1
        if X in stored:
            events["uncertain store"] += 1
        if taken >= 2 and forking.any():
            events["fork at step >= 2"] += 1
        for row, lanes_ in enumerate(zip(fast.lanes, single.lanes, slow.lanes)):
            la, lb, lc = lanes_
            assert la.cycle == lb.cycle == lc.cycle
            for other in (lb, lc):
                assert vars(la._request) == vars(other._request)
                assert (la.dout_value, la.dout_xmask) == (
                    other.dout_value, other.dout_xmask
                )
                assert la.memory.digest() == other.memory.digest()
            assert np.array_equal(
                fast.planes[row],
                packed.pack_state(slow.values[row], slow._prev_active[row]),
            )
            if la._before[0] >= 0:
                _assert_same_snapshot(packed, [
                    fast.snapshot(la, before_step=True), before[row],
                    slow.snapshot(lc, before_step=True),
                ])
                events["snapshot from an arena row"] += 1
        # forking and halted lanes leave, as in the explorer, and a few more
        halted = np.zeros(live, dtype=bool)
        for nets, value in stops:
            values, xmasks = fast.peek_bus(nets)
            halted |= xmasks != 0 if value is None else (
                (xmasks == 0) & (values == value)
            )
        for row in reversed(range(live)):
            if halted[row] or rng.random() < 0.2:
                for batch in batches:
                    batch.retire(batch.lanes[row])
    return events


class TestBatchRunKernel:
    """A multi-cycle native call against one-cycle calls and the
    reference engine, row for row."""

    EVENTS = {
        "refill", "enable-X read", "X-address read", "stopped early",
        "store", "uncertain store", "fork at step >= 2",
        "snapshot from an arena row",
    }

    @pytest.mark.parametrize("lanes, seed", [(4, 6), (6, 6), (70, 5)])
    def test_toy_counter_runs_match(self, toy_cache, lanes, seed):
        """Enable-X merges, X-address reads, certain and uncertain
        stores, one-shot DFF loads, across groups of 64 lanes; with few
        lanes, calls run long enough for a lane to fork at step 2 or
        later."""
        netlist, ports, stops, engines, snapshots, variant, data = (
            _counter_system()
        )
        events = _run_churn(
            netlist, ports, stops, engines, snapshots, variant, lanes, seed,
            data, rounds=30,
        )
        expected = self.EVENTS - ({"fork at step >= 2"} if lanes > 8 else set())
        assert expected <= set(events), events

    @pytest.mark.parametrize("lanes", [4, 8, 65])
    def test_cpu_runs_match(self, cpu, cpu_points, lanes):
        """The same on the ULP430, from states inside path segments.  Its
        benchmarks never latch an uncertain store, and from an X state
        it stores to an X address, which both engines refuse alike."""
        events = _run_churn(
            cpu.netlist, cpu.ports, cpu.batch_stops(),
            (cpu.evaluator_for("native"), cpu.evaluator), cpu_points,
            _cpu_variant(cpu, unusual=True), lanes, lanes, cpu.nets.pc_d,
            longest=24,
        )
        expected = self.EVENTS - {"uncertain store"} | {"error"}
        assert expected <= set(events), events


class TestBatchStepRefusals:
    """A packed batch the kernel cannot drive is an error naming why,
    never a silent second step."""

    def test_dout_must_drive_inputs(self, toy_cache):
        netlist = random_netlist(120, seed=65)
        gate = next(g.index for g in netlist.gates if g.kind == "AND")
        ports = MemoryPorts(addr=[3], din=[4], dout=[0, gate], we=5, en=6)
        with pytest.raises(NativeKernelError, match=f"net {gate} is not one"):
            BatchMachine(netlist, ports, NativeEvaluator(netlist), 2)

    def test_at_most_64_inputs(self, toy_cache):
        netlist = Netlist()
        inputs = [netlist.add_gate("INPUT") for _ in range(65)]
        netlist.add_gate("AND", (inputs[0], inputs[-1]))
        ports = MemoryPorts(
            addr=inputs[1:3], din=inputs[3:5], dout=inputs[5:7],
            we=inputs[7], en=inputs[8],
        )
        with pytest.raises(NativeKernelError, match="at most 64 INPUT nets"):
            BatchMachine(netlist, ports, NativeEvaluator(netlist), 2)

    def test_memory_bus_wider_than_a_probe_word(self, toy_cache):
        netlist = random_netlist(120, seed=66)
        ports = MemoryPorts(
            addr=list(range(20, 85)), din=[4], dout=[0, 1], we=5, en=6
        )
        with pytest.raises(NativeKernelError, match="wider than 64 bits"):
            BatchMachine(netlist, ports, NativeEvaluator(netlist), 2)

    def test_read_past_a_lane_memory_is_an_index_error(self, toy_cache):
        """The run reads a lane's memory in place, so an address past its
        end is refused before the read, as numpy refuses the reference
        engine's."""
        netlist, ports, stops, engines, snapshots, _variant, _data = (
            _counter_system()
        )
        snap = dict(snapshots[1], memory=TernaryMemory(n_words=2))
        for evaluator in engines:
            batch = BatchMachine(netlist, ports, evaluator, 1, stops=stops)
            base = snap if evaluator is engines[0] else _as_reference(
                engines[0], snap
            )
            batch.load(base, {})
            with pytest.raises(IndexError):
                batch.step(8)

    def test_forcing_a_non_input_names_the_net(self, toy_cache):
        netlist, ports, engines, snapshots, _variant = _toy_system(3)
        batch = BatchMachine(netlist, ports, engines[0], 2)
        gate = next(g.index for g in netlist.gates if g.kind == "MUX")
        batch.load(snapshots[0], {})
        batch.load(dict(snapshots[1], forced_inputs={3: 0, gate: 1}), {})
        before = batch.planes.copy()
        with pytest.raises(ValueError, match=f"forced net {gate} is not an INPUT"):
            batch.step()
        assert np.array_equal(batch.planes, before)  # no lane was stepped

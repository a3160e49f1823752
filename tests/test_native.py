"""Native C kernel engine: gate identity, surgery pins, fallback, cache.

Four tiers, mirroring the engine's soundness argument:

1. **Gate kernels, exhaustively**: every kind over every 3-valued input
   combination through the *compiled C kernel* must match the scalar
   truth functions — the kernel's run formulas (and the copy-class rail
   folding of BUF/NOT) are proven by enumeration, independent of the
   numpy tape.
2. **Schedule-surgery pins**: BUF/NOT chains collapse to a rail
   permutation of their root; the collapsed schedule must still produce
   reference values/activity for every input, on both packed engines.
3. **Randomized equivalence**: random DAGs settle bit-identically to
   the bitplane tape (scalar and batched shapes, valid encodings and raw
   random planes).  On all 14 benchmarks the native engine reproduces
   the golden tree digest that ``test_differential`` holds bitplane and
   reference to, plus the golden analysis floats, which closes
   native ≡ bitplane ≡ reference; one direct native ≡ reference probe
   guards that argument itself.
4. **Degradation**: a monkeypatched compiler-less host falls back to the
   bitplane engine with exactly one warning and identical results.

The kernel source never depends on the netlist, so one shared object,
built once per process (about 0.1 s), serves the toy netlists and the
CPU alike.
"""

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
from repro.sim.bitplane import ENGINES, BitplaneEvaluator, make_evaluator
from repro.sim.evaluator import LevelizedEvaluator
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


# ----------------------------------------------------------------------
# Tier 1: the C kernel per gate kind, exhaustively
# ----------------------------------------------------------------------
class TestGeneratedGateKernelsExhaustive:
    def test_two_input_kinds(self, toy_cache):
        netlist = Netlist()
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        outs = {
            kind: netlist.add_gate(kind, (a, b)) for kind in TWO_INPUT_FUNCS
        }
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for va, vb in itertools.product((0, 1, X), repeat=2):
            expected, got = settle_sources(
                evaluator, reference, {a: va, b: vb}
            )
            assert np.array_equal(got, expected)
            for kind, func in TWO_INPUT_FUNCS.items():
                assert got[outs[kind]] == func(va, vb), (kind, va, vb)

    def test_mux_all_27(self, toy_cache):
        netlist = Netlist()
        s = netlist.add_gate("INPUT")
        a = netlist.add_gate("INPUT")
        b = netlist.add_gate("INPUT")
        y = netlist.add_gate("MUX", (s, a, b))
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for vs, va, vb in itertools.product((0, 1, X), repeat=3):
            _expected, got = settle_sources(
                evaluator, reference, {s: vs, a: va, b: vb}
            )
            assert got[y] == ternary.t_mux(vs, va, vb), (vs, va, vb)


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
        program = BitplaneEvaluator(netlist).program
        # every ladder element resolves to the input with the parity of
        # the NOTs between them (1, 1, 0, 1, 1 along this ladder)
        parities = [1, 1, 0, 1, 1]
        for net, parity in zip(chain[1:], parities):
            assert program.chain_of[net] == (a, parity), net
        # the root memoizes as its own fixed point
        assert program.chain_of.get(a, (a, 0)) == (a, 0)

    @pytest.mark.parametrize("engine_cls", [BitplaneEvaluator])
    def test_chain_values_exhaustive(self, engine_cls):
        netlist, a, b, chain, taps, _dff = chain_netlist()
        reference = LevelizedEvaluator(netlist)
        evaluator = engine_cls(netlist)
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

    def test_chain_values_native(self, toy_cache):
        netlist, a, b, _chain, _taps, _dff = chain_netlist()
        reference = LevelizedEvaluator(netlist)
        evaluator = NativeEvaluator(netlist)
        for va, vb in itertools.product((0, 1, X), repeat=2):
            expected, got = settle_sources(
                evaluator, reference, {a: va, b: vb}
            )
            assert np.array_equal(got, expected)

    def test_chain_activity_matches_reference(self):
        netlist, _a, _b, _chain, _taps, _dff = chain_netlist()
        reference = LevelizedEvaluator(netlist)
        evaluator = BitplaneEvaluator(netlist)
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
        rng = np.random.default_rng(500 + seed)
        netlist = random_netlist(230 + 17 * seed, seed=40 + seed)
        bitplane = BitplaneEvaluator(netlist)
        evaluator = NativeEvaluator(netlist, bitplane.program)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        for lead in ((), (3,), (8,)):
            prev = rng.integers(
                0, 3, size=lead + (netlist.n_nets,), dtype=np.uint8
            )
            prev_active = rng.integers(
                0, 2, size=lead + (netlist.n_nets,)
            ).astype(bool)
            new_sources = rng.integers(
                0, 3, size=lead + (len(sources),), dtype=np.uint8
            )

            results = []
            for engine in (bitplane, evaluator):
                planes = engine.pack_state(prev, prev_active)
                engine.stash_prev(planes)
                flat = planes.reshape((-1,) + planes.shape[-2:])
                flat_sources = new_sources.reshape(-1, len(sources))
                for row in range(flat.shape[0]):
                    for net, value in zip(sources, flat_sources[row]):
                        engine.write_trit(flat[row], net, int(value))
                engine.settle_and_mark(planes)
                results.append(planes)
            assert np.array_equal(results[0], results[1]), lead
            # memo fingerprints agree because the raw planes do
            if not lead:
                assert bitplane.state_bytes(
                    results[0]
                ) == evaluator.state_bytes(results[1])

    def test_rejects_planes_of_another_shape(self, cpu):
        evaluator = cpu.evaluator_for("native")
        with pytest.raises(ValueError, match="uint64 planes"):
            evaluator.settle_and_mark(
                np.zeros((2, 3, evaluator.n_words - 1), dtype=np.uint64)
            )
        with pytest.raises(ValueError, match="uint64 planes"):
            evaluator.settle_and_mark(evaluator.fresh_planes().view(np.int64))

    @pytest.mark.parametrize("lead", [(), (1,), (8,), (32,)])
    def test_raw_random_planes_match_bitplane(self, lead, toy_cache, cpu):
        """Arbitrary P/N/A words (pads and the zero bit included) settle
        identically on the CPU's schedule: the kernel's zero-bit shortcut
        reads the rails it replaces, it does not assume them."""
        rng = np.random.default_rng(70 + sum(lead))
        bitplane = cpu.evaluator_for("bitplane")
        evaluator = NativeEvaluator(cpu.netlist, bitplane.program)
        shape = lead + (3, bitplane.n_words)
        prev = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        state = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        results = []
        for engine in (bitplane, evaluator):
            engine.stash_prev(prev)
            planes = state.copy()
            engine.settle_and_mark(planes)
            results.append(planes)
        assert np.array_equal(results[0], results[1])


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
        pin a fallen-back bitplane evaluator as "native"."""
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

    def test_native_equals_reference_directly(self, cpu):
        """One one-lane reference probe on mult pins the transitivity
        argument without going through the golden file."""
        reference, native_tree = (
            explore_benchmark(cpu, "mult", batch_size=batch_size, engine=engine)
            for batch_size, engine in ((1, "reference"), (None, "native"))
        )
        assert native_tree.digest() == reference.digest()


# ----------------------------------------------------------------------
# Tier 4: compiler-less degradation
# ----------------------------------------------------------------------
class TestFallback:
    def test_no_compiler_falls_back_with_one_warning(
        self, unloaded, monkeypatch
    ):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._reset_fallback_warning()
        netlist = random_netlist(180, seed=61)
        with pytest.warns(RuntimeWarning, match="native engine unavailable"):
            evaluator = native.evaluator_or_fallback(netlist)
        assert type(evaluator) is BitplaneEvaluator
        # the second degradation in the same process stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = native.evaluator_or_fallback(netlist)
        assert type(again) is BitplaneEvaluator
        native._reset_fallback_warning()

        # the fallback produces the reference results, not just no error
        reference = LevelizedEvaluator(netlist)
        sources = [
            g.index for g in netlist.gates if g.kind in ("INPUT", "DFF")
        ]
        rng = np.random.default_rng(9)
        values = {
            net: int(v)
            for net, v in zip(
                sources, rng.integers(0, 3, size=len(sources))
            )
        }
        expected, got = settle_sources(evaluator, reference, values)
        assert np.array_equal(got, expected)

    def test_build_failure_raises_kernel_error(self, unloaded, monkeypatch):
        monkeypatch.setattr(native, "SOURCE", "#error simulated breakage\n")
        netlist = random_netlist(160, seed=62)
        with pytest.raises(NativeKernelError, match="simulated breakage"):
            NativeEvaluator(netlist)
        assert not list(unloaded.glob("native/*")), "scratch files left"
        native._reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back"):
            evaluator = native.evaluator_or_fallback(netlist)
        assert type(evaluator) is BitplaneEvaluator
        native._reset_fallback_warning()


# ----------------------------------------------------------------------
# Plumbing: every engine-name surface knows "native"
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_engines_tuple(self):
        assert ENGINES == ("bitplane", "native", "reference")

    def test_make_evaluator_native(self, toy_cache):
        netlist = random_netlist(140, seed=63)
        evaluator = make_evaluator(netlist, engine="native")
        assert isinstance(evaluator, (NativeEvaluator, BitplaneEvaluator))

    def test_unknown_engine_lists_all_names(self, cpu):
        with pytest.raises(ValueError) as err:
            cpu.evaluator_for("verilator")
        for name in ENGINES:
            assert name in str(err.value)

    def test_repro_engine_env(self, monkeypatch):
        from repro.sim.bitplane import default_engine

        monkeypatch.setenv("REPRO_ENGINE", "native")
        assert default_engine() == "native"
        monkeypatch.setenv("REPRO_ENGINE", "simulink")
        with pytest.raises(ValueError, match="native"):
            default_engine()

    def test_native_batches_like_bitplane(self, monkeypatch):
        from repro.core.activity import (
            BITPLANE_DEFAULT_BATCH_SIZE,
            default_batch_size,
        )

        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        assert default_batch_size("native") == BITPLANE_DEFAULT_BATCH_SIZE

    def test_cli_accepts_native(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["analyze", "prog.asm", "--engine", "native"]
        )
        assert args.engine == "native"
        args = build_parser().parse_args(
            ["submit", "mult", "--engine", "native"]
        )
        assert args.engine == "native"

    def test_service_normalize_params(self):
        from repro.service.scheduler import normalize_params

        params = normalize_params("analyze", {"benchmark": "mult"})
        assert params["engine"] in ENGINES  # resolved server-side default
        params = normalize_params(
            "profile", {"benchmark": "mult", "engine": "native"}
        )
        assert params["engine"] == "native"
        with pytest.raises(ValueError) as err:
            normalize_params("analyze", {"benchmark": "mult", "engine": "hdl"})
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
        assert toy._table.nw != real._table.nw

    def test_default_engine_is_native(self, cpu, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
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
# Threads sharing one CPU (repro serve --backend thread, suite jobs)
# ----------------------------------------------------------------------
THREADED = ("mult", "FFT", "intAVG", "tea8")


@pytest.mark.parametrize("engine", ["bitplane", "native"])
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

"""Native settle kernel: one foreign call per cycle.

The bitplane engine executes the compiled level schedule as ~25 numpy
ufunc dispatches per level plus a fancy-indexed gather — fast per *bit*,
but the per-dispatch overhead dominates once the planes fit in cache.
This module replaces that interpreter loop with :data:`SOURCE`, one fixed
C translation unit that walks the tables a
:class:`~repro.netlist.program.NetlistProgram` already compiles (the
per-level gathers, the opcode runs, the activity blocks, the source-block
rule and the DFF activity gather).  It is called through ctypes, which
releases the GIL for the call, as::

    void repro_settle(const struct program *p, uint64_t *state,
                      const uint64_t *prev, long rows);

``state`` is the C-contiguous ``(rows, 3, n_words)`` plane array settled
in place; ``prev`` the stashed previous-cycle planes of the activity
rule.  Any leading batch shape flattens to ``rows``, so one call settles
a scalar machine or a 64-lane batch alike.

Because the source never depends on the netlist, it compiles once per
(source, flags, compiler) digest into ``<cache>/native/<digest>.so``
(about 0.1 s) and one loaded library serves every netlist in the
process; the tables are handed over when an evaluator is built.
:func:`start_build` compiles in the background; ``build_ulp430`` calls
it (through :func:`prefetch`) before elaborating the CPU, so a cold build
overlaps elaboration and the schedule compile.

Bit identity with ``bitplane``/``reference`` is a hard contract — the
kernel executes the *same* schedule the numpy tape does, and the
differential suite pins values, A plane and memo ``state_bytes`` on every
benchmark.  When no C compiler is present (or the build fails)
:func:`evaluator_or_fallback` degrades to the bitplane engine with a
single process-wide warning, never an error.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from repro.netlist.core import Netlist
from repro.netlist.program import NetlistProgram
from repro.sim.bitplane import BitplaneEvaluator, default_engine

#: the settle kernel.  A gather word is the OR of single bits of a source
#: row (``code`` = source bit << 6 | destination bit) plus the reads of
#: the reserved zero bit, which are most of them (every pad slot) and
#: come from its three rails through the ``zero`` masks.
SOURCE = r"""
#include <stdint.h>
typedef uint64_t u64;
typedef int32_t i32;

struct program {
    i32 nw, sw, dff0, dffw, nlev, scratch, dff_gather;
    const u64 *input_mask;  /* sw words */
    const i32 *lev;         /* word0 words gather0 gathers run0 run1 act0 act1 act2 muxw */
    const i32 *run;         /* res_word words p-slots[4] n-slots[4] */
    const i32 *start;       /* gather word g: code[start[g] .. start[g+1]) */
    const i32 *code;
    const u64 *zero;        /* gather word g: zero-bit masks of the P, N, A rails */
};

static void gather(u64 *S, const u64 *src, const struct program *p, i32 g0, i32 n)
{
    u64 zp = -(src[0] & 1), zn = -(src[p->nw] & 1), za = -(src[2 * p->nw] & 1);
    for (i32 g = g0; g < g0 + n; ++g) {
        const u64 *z = p->zero + 3 * g;
        u64 acc = (zp & z[0]) | (zn & z[1]) | (za & z[2]);
        for (i32 t = p->start[g]; t < p->start[g + 1]; ++t) {
            i32 c = p->code[t];
            acc |= ((src[c >> 12] >> ((c >> 6) & 63)) & 1) << (c & 63);
        }
        S[g - g0] = acc;
    }
}

void repro_settle(const struct program *p, u64 *state, const u64 *prev, long rows)
{
    const i32 nw = p->nw;
    u64 S[p->scratch];
    for (long r = 0; r < rows; ++r, state += 3 * nw, prev += 3 * nw) {
        u64 *P = state, *N = state + nw, *A = state + 2 * nw;
        const u64 *pP = prev, *pN = prev + nw;
        for (i32 k = 0; k < p->sw; ++k)
            A[k] = (P[k] ^ pP[k]) | (N[k] ^ pN[k]) | (P[k] & N[k] & p->input_mask[k]);
        gather(S, prev, p, p->dff_gather, p->dffw);
        for (i32 k = 0, d = p->dff0; k < p->dffw; ++k, ++d)
            A[d] |= P[d] & N[d] & S[k];
        for (const i32 *L = p->lev; L < p->lev + 10 * p->nlev; L += 10) {
            gather(S, state, p, L[2], L[3]);
            /* every run class: p = (x0 & x1) | (x2 & x3), n = (y0 & y1) | (y2 & y3) */
            for (const i32 *R = p->run + 10 * L[4]; R < p->run + 10 * L[5]; R += 10) {
                for (i32 k = 0, w = L[0] + R[0]; k < R[1]; ++k, ++w) {
                    P[w] = (S[R[2] + k] & S[R[3] + k]) | (S[R[4] + k] & S[R[5] + k]);
                    N[w] = (S[R[6] + k] & S[R[7] + k]) | (S[R[8] + k] & S[R[9] + k]);
                }
            }
            /* A = changed | (is_x & (act0 | act1 [| act2 on the mux tail])) */
            const i32 w0 = L[0], plain = L[1] - L[9];
            for (i32 k = 0; k < L[1]; ++k) {
                u64 pv = P[w0 + k], nv = N[w0 + k];
                u64 act = S[L[6] + k] | S[L[7] + k] | (k < plain ? 0 : S[L[8] + k - plain]);
                A[w0 + k] = (pv ^ pP[w0 + k]) | (nv ^ pN[w0 + k]) | (pv & nv & act);
            }
        }
    }
}
"""

#: per run class, the input blocks (indices into ``Run.slot_words``) of
#: its two output rails as ``(x0 & x1) | (x2 & x3)``: blocks are PA, NA,
#: PB, NB (``copy``: P, N; ``mux``: SN, SP, PA, PB, NA, NB)
_PRODUCTS = {
    "copy": ((0, 0, 0, 0), (1, 1, 1, 1)),
    "and": ((0, 2, 0, 2), (1, 1, 3, 3)),  # p = pa & pb, n = na | nb
    "and_swap": ((1, 1, 3, 3), (0, 2, 0, 2)),
    "xor": ((0, 3, 1, 2), (0, 2, 1, 3)),  # p = pa&nb | na&pb
    "xor_swap": ((0, 2, 1, 3), (0, 3, 1, 2)),
    "mux": ((0, 2, 1, 3), (0, 4, 1, 5)),  # p = sn&pa | sp&pb
}

#: compilers probed (after ``$CC``) when building the shared object
_COMPILERS = ("cc", "gcc", "clang")

#: -O1 compiles in about 2/3 of -O2's time; aligning the loops recovers
#: -O2's settle speed (gcc 12, x86-64)
_CFLAGS = ("-O1", "-falign-loops=16", "-shared", "-fPIC", "-nostdlib")


class NativeKernelError(RuntimeError):
    """The native kernel could not be built or loaded."""


# ----------------------------------------------------------------------
# Build + load
# ----------------------------------------------------------------------
def find_compiler() -> list[str] | None:
    """The C compiler command to use, or ``None`` when none is present.

    ``$CC`` (split shell-style, so flags ride along) wins; otherwise the
    first of ``cc``/``gcc``/``clang`` on ``PATH``.
    """
    env_cc = os.environ.get("CC", "").strip()
    candidates = ([env_cc] if env_cc else []) + list(_COMPILERS)
    for candidate in candidates:
        argv = shlex.split(candidate)
        if argv and shutil.which(argv[0]):
            return argv
    return None


def kernel_digest(argv: list[str]) -> str:
    """Digest of what the shared object depends on: source, flags, compiler."""
    h = hashlib.blake2b(digest_size=8)
    for part in (SOURCE, *_CFLAGS, *argv):
        h.update(part.encode() + b"\0")
    return h.hexdigest()


def _native_cache_dir() -> Path:
    """``<bench cache>/native`` — rides the runner's CACHE_DIR knob so
    tests and ``repro serve --store`` redirect kernels too."""
    from repro.bench import runner

    return Path(runner.CACHE_DIR) / "native"


class _Build:
    """The shared object on disk, or the background compile that makes it.

    The compile runs on a daemon thread, so it finishes (and atomically
    publishes the ``.so``) even when nobody waits for it.
    """

    def __init__(self):
        argv = find_compiler()
        if argv is None:
            raise NativeKernelError(
                "no C compiler found (tried $CC, " + ", ".join(_COMPILERS) + ")"
            )
        self.path = _native_cache_dir() / f"{kernel_digest(argv)}.so"
        self.build_s = 0.0
        self.error: str | None = None
        self.thread = None
        if not self.path.is_file():
            self.thread = threading.Thread(
                target=self._compile, args=(argv,), daemon=True
            )
            self.thread.start()

    def _compile(self, argv: list[str]) -> None:
        started = time.perf_counter()
        scratch = self.path.with_name(
            f"{self.path.stem}.tmp{os.getpid()}-{threading.get_ident()}.so"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                argv + list(_CFLAGS) + ["-o", str(scratch), "-x", "c", "-"],
                input=SOURCE,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                self.error = (
                    f"C compile failed ({argv[0]}): "
                    f"{(proc.stderr or proc.stdout).strip()[:500]}"
                )
            else:
                os.replace(scratch, self.path)
        except OSError as exc:
            self.error = f"C compile failed ({argv[0]}): {exc}"
        finally:
            scratch.unlink(missing_ok=True)
        self.build_s = time.perf_counter() - started

    def wait(self) -> tuple[Path, float]:
        """(path to the .so, compile seconds: 0.0 when it was cached)."""
        if self.thread is not None:
            self.thread.join()
        if self.error:
            raise NativeKernelError(self.error)
        return self.path, self.build_s


class _Program(ctypes.Structure):
    """``struct program`` of :data:`SOURCE`."""

    _fields_ = [
        (name, ctypes.c_int32)
        for name in ("nw", "sw", "dff0", "dffw", "nlev", "scratch", "dff_gather")
    ] + [
        (name, ctypes.c_void_p)
        for name in ("input_mask", "lev", "run", "start", "code", "zero")
    ]


class NativeKernel:
    """The loaded settle kernel (one per process, shared by all netlists)."""

    def __init__(self, path: Path, build_s: float):
        try:
            self.fn = ctypes.CDLL(str(path)).repro_settle
        except (OSError, AttributeError) as exc:
            raise NativeKernelError(f"cannot load {path}: {exc}") from None
        self.fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long]
        self.fn.restype = None
        self.path = path
        self.digest = path.stem
        #: compile seconds actually spent in this process (0.0 when the
        #: .so was already cached) — surfaced by the perf harness
        self.build_s = build_s


_LOCK = threading.Lock()
_KERNEL: NativeKernel | None = None
_BUILD: _Build | None = None


def start_build() -> None:
    """Launch the compiler in the background unless the kernel is loaded,
    cached, already compiling, or cannot be built (:func:`load_kernel`
    then raises the reason)."""
    global _BUILD
    with _LOCK:
        if _KERNEL is None and _BUILD is None:
            try:
                _BUILD = _Build()
            except NativeKernelError:
                pass


def prefetch() -> None:
    """:func:`start_build` if ``REPRO_ENGINE`` selects native (the default).

    The kernel does not depend on the netlist, so callers start it before
    elaborating one; a bad ``REPRO_ENGINE`` is left for whoever selects
    the engine to report.
    """
    try:
        if default_engine() == "native":
            start_build()
    except ValueError:
        pass


def load_kernel() -> NativeKernel:
    """The process's kernel: loaded once, compiled first if not cached."""
    global _KERNEL, _BUILD
    with _LOCK:
        if _KERNEL is None:
            build, _BUILD = _BUILD or _Build(), None
            _KERNEL = NativeKernel(*build.wait())
        return _KERNEL


#: uint8 single-bit mask -> its bit index
_BIT_OF_MASK = np.zeros(256, dtype=np.int64)
_BIT_OF_MASK[1 << np.arange(8)] = np.arange(8)


def program_tables(program: NetlistProgram) -> tuple[_Program, list[np.ndarray]]:
    """The ``struct program`` for *program*, plus the arrays it points to
    (the caller keeps them alive)."""
    nw = program.n_words
    # every level's gather, then the DFF activity gather, as bit indices
    # into a (3 * n_words)-word row
    byte = np.concatenate(
        [plan.gather_bytes for plan in program.levels] + [program.dff_act_bytes]
    )
    mask = np.concatenate(
        [plan.gather_masks for plan in program.levels] + [program.dff_act_masks]
    )
    bits = byte.astype(np.int64) * 8 + _BIT_OF_MASK[mask]
    if bits.size and bits.max() >= 1 << 25:
        raise NativeKernelError("netlist too large for the kernel's gather codes")
    n_gather = bits.size // 64
    word = np.arange(bits.size) // 64
    rail, offset = np.divmod(bits, nw * 64)
    zero_bit = offset == 0
    zero = np.zeros((3, n_gather * 64), dtype=np.uint8)
    zero[rail[zero_bit], np.flatnonzero(zero_bit)] = 1
    zero = np.packbits(zero, axis=-1, bitorder="little").view(np.uint64)
    code = (bits << 6) | (np.arange(bits.size) & 63)
    start = np.zeros(n_gather + 1, dtype=np.int32)
    np.cumsum(np.bincount(word[~zero_bit], minlength=n_gather), out=start[1:])

    lev, run = [], []
    g0 = 0
    for plan in program.levels:
        lev += [
            plan.word0, plan.words, g0, plan.scratch_words, len(run) // 10,
            len(run) // 10 + len(plan.runs), plan.act0_word, plan.act1_word,
            plan.act2_word or 0, plan.mux_words,
        ]
        g0 += plan.scratch_words
        for r in plan.runs:
            run += [r.res_word, r.words]
            for blocks in _PRODUCTS[r.cls]:
                run += [r.slot_words[block] for block in blocks]
    arrays = [
        np.ascontiguousarray(program.input_mask, dtype=np.uint64),
        np.array(lev or [0], dtype=np.int32),
        np.array(run or [0], dtype=np.int32),
        start,
        code[~zero_bit].astype(np.int32),
        np.ascontiguousarray(zero.T),
    ]
    table = _Program(
        nw, program.src_words, program.dff_word0, program.dff_words,
        len(program.levels),
        max(program.max_scratch_words, program.dff_words, 1), g0,
        *(a.ctypes.data for a in arrays),
    )
    return table, arrays


# ----------------------------------------------------------------------
# Evaluator + fallback
# ----------------------------------------------------------------------
class NativeEvaluator(BitplaneEvaluator):
    """BitplaneEvaluator whose settle sweep is one native call.

    Everything else — packing, DFF clocking, state fingerprints, bus
    peeks — is inherited unchanged, so machines, batch machines, memo
    keys and traces behave identically; only ``stash_prev`` /
    ``settle_and_mark`` bypass the numpy tape (and never build the
    per-lead tape buffers at all).
    """

    engine_name = "native"

    def __init__(
        self,
        netlist: Netlist,
        program: NetlistProgram | None = None,
        kernel: NativeKernel | None = None,
    ):
        super().__init__(netlist, program)
        self.kernel = kernel or load_kernel()
        self._table, self._arrays = program_tables(self.program)
        self._table_ptr = ctypes.addressof(self._table)

    def _prev_planes(self, lead: tuple[int, ...]) -> np.ndarray:
        scratch = self._thread_scratch()
        prev = scratch.get(lead)
        if prev is None:
            prev = scratch[lead] = np.zeros(
                lead + (3, self.n_words), dtype=np.uint64
            )
        return prev

    def stash_prev(self, planes: np.ndarray) -> None:
        np.copyto(self._prev_planes(planes.shape[:-2]), planes)

    def settle_and_mark(self, planes: np.ndarray) -> None:
        if planes.dtype != np.uint64 or planes.shape[-2:] != (3, self.n_words):
            raise ValueError(
                f"expected (..., 3, {self.n_words}) uint64 planes, got "
                f"{planes.shape} {planes.dtype}"
            )
        lead = planes.shape[:-2]
        prev = self._prev_planes(lead)
        contiguous = planes.flags["C_CONTIGUOUS"]
        state = planes if contiguous else np.ascontiguousarray(planes)
        self.kernel.fn(
            self._table_ptr, state.ctypes.data, prev.ctypes.data,
            prev.size // (3 * self.n_words),
        )
        if not contiguous:
            planes[...] = state


_fallback_warned = False


def warn_fallback(reason: Exception | str) -> None:
    """One process-wide warning when native degrades to bitplane."""
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    warnings.warn(
        f"native engine unavailable ({reason}); falling back to the "
        "bitplane engine (results are identical, settle is slower)",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_fallback_warning() -> None:
    """Test hook: arm the fallback warning again."""
    global _fallback_warned
    _fallback_warned = False


def evaluator_or_fallback(netlist: Netlist, bitplane=None):
    """A :class:`NativeEvaluator`, or a bitplane one when builds fail.

    *bitplane* returns the :class:`BitplaneEvaluator` whose compiled
    program is shared and which is the fallback (default: a new one).  It
    runs while the compiler does, so a cold build overlaps the schedule
    compile.  Never raises for missing toolchains — the paper pipeline
    must run anywhere.
    """
    start_build()
    base = bitplane() if bitplane else BitplaneEvaluator(netlist)
    try:
        return NativeEvaluator(netlist, base.program)
    except NativeKernelError as exc:
        warn_fallback(exc)
        return base

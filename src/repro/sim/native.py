"""Native kernels: the row-layout settle, the lane-sliced batch step and
the transition-energy pricer.

The packed engine's per-cycle work lives in :data:`SOURCE`, one fixed C
translation unit with three entry points, called through ctypes (which
releases the GIL for the call):

    void repro_settle(const struct program *p, uint64_t *state,
                      const uint64_t *prev, long rows);
    void repro_step(const struct lanes *p, struct batch *b, long live,
                    long n_force);
    void repro_price(const struct pricing *t, const uint64_t *prev,
                     const uint64_t *cur, const long *strides, long rows,
                     int64_t *out);

``repro_settle`` walks the tables a
:class:`~repro.netlist.program.NetlistProgram` compiles (the per-level
gathers, the opcode runs, the activity blocks, the source-block rule and
the DFF activity gather) over C-contiguous ``(rows, 3, n_words)`` planes
in place, ``prev`` holding the stashed previous-cycle planes of the
activity rule.  Its cost grows with the rows; a single
:class:`~repro.sim.machine.Machine` (reset, concrete runs) uses it.

``repro_step`` advances a whole :class:`~repro.sim.batch.BatchMachine`
one cycle in one call.  It keeps the batch lane-sliced — one ``u64`` per
net and rail, one bit per lane (:class:`LaneTables`) — so the 5,641
gates of the ULP430 cost the same for 1 lane as for 64.  Per lane it
loads the DFFs (one-shot forces included), forces ``dout`` and the
forced inputs, settles, marks activity, writes the changed bytes of the
live rows back and returns the memory request and every registered probe
bus (:class:`BatchKernel`).  It is the only packed batch step: a batch
whose ports it cannot drive is refused with a :class:`NativeKernelError`
or a :class:`ValueError` naming the reason.

``repro_price`` is the power model's transition-energy kernel
(:class:`Pricer`): per row of ``(prev, cur)`` P/N planes it walks the set
bits of the rising and falling edge words and sums their integer
attojoule energies, in total and per module.  Integer sums do not depend
on their order, so it agrees with the numpy pricer in
:mod:`repro.power.model` integer for integer.

Because the source never depends on the netlist, it compiles once per
(source, flags, compiler) digest into ``<cache>/native/<digest>.so``
(about 0.1 s) and one loaded library serves every netlist in the
process; the tables are handed over when an evaluator or a batch is
built.  :func:`start_build` compiles in the background; ``build_ulp430``
calls it (through :func:`prefetch`) before elaborating the CPU, so a cold
build overlaps elaboration and the schedule compile.

Bit identity with ``reference`` (the uint8 oracle) is a hard contract:
the differential suite pins values, A plane and memo ``state_bytes`` per
gate and per random netlist, the batch step against a reference-engine
batch record for record, and the trees of every benchmark.  When no C
compiler is present (or the build fails) :func:`evaluator_or_fallback`
degrades to the reference engine and :func:`pricer` to the numpy pricer,
with a single process-wide warning between them, never an error.
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
from repro.netlist.program import RUN_ORDER, NetlistProgram
from repro.sim.bitplane import BitplaneEvaluator, default_engine
from repro.sim.evaluator import LevelizedEvaluator

#: the kernels.  In the settle, a gather word is the OR of single bits of
#: a source row (``code`` = source bit << 6 | destination bit) plus the
#: reads of the reserved zero bit, which are most of them (every pad slot)
#: and come from its three rails through the ``zero`` masks.
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

/* ---- the batch step: lane-sliced state, one u64 per slot and rail ---- */
struct lanes {
    i32 nw, n_chunks, in0, n_in, n_const, dff0, n_dff, n_runs;
    const i32 *chunk;   /* row byte of slots [8q, 8q + 8) */
    const i32 *dff_d;   /* slot of DFF k's D net */
    const i32 *run;     /* class first-slot gates first-ref */
    const i32 *ref;     /* per gate: value rails, then activity (rail * slots + slot) */
};

struct batch {
    u64 *state;             /* per 64-lane group: 2 buffers of 3 rails x slots */
    u64 *dirty;             /* per group: lanes whose rows Python rewrote */
    u64 *planes;            /* the (rows, 3, nw) row-packed planes */
    const u64 *port;        /* per lane: dout value, dout xmask, forced mask, P, N */
    const i32 *dff_force;   /* (row, DFF, value) triples */
    const i32 *dout;        /* input of dout bit b */
    const i32 *bus;         /* n_bus + 1 offsets into the slots that follow */
    u64 *probe;             /* per lane and bus: value, xmask */
    i32 n_dout, n_bus, cur;
};

/* 8x8 bit transpose: bit i of byte k <-> bit k of byte i */
static u64 t8(u64 x)
{
    u64 t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL; x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL; x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL; x ^= t ^ (t << 28);
    return x;
}

/* advance the first `live` rows of the batch one cycle */
void repro_step(const struct lanes *p, struct batch *b, long live, long n_force)
{
    const long ns = 8L * p->n_chunks, row = 24L * p->nw, nb = 2L * b->n_bus;
    for (long g = 0; 64 * g < live; ++g) {
        const long n = live - 64 * g < 64 ? live - 64 * g : 64;
        u64 *S = b->state + (2 * g + b->cur) * 3 * ns;      /* last cycle */
        u64 *T = b->state + (2 * g + !b->cur) * 3 * ns;     /* this cycle */
        unsigned char *rows = (unsigned char *)b->planes + 64 * g * row;
        /* re-read the rows Python rewrote: a chunk is one byte of a row.
           Both buffers take them, so the pads inside live bytes, which no
           step computes, read back unchanged whichever buffer holds T */
        for (i32 g8 = 0; g8 < 8; ++g8) {
            const u64 d8 = (b->dirty[g] >> (8 * g8)) & 0xFF, keep = ~(d8 << (8 * g8));
            for (i32 rail = 0; d8 && rail < 3; ++rail)
                for (i32 c = 0; c < p->n_chunks; ++c) {
                    const unsigned char *src = rows + 8 * g8 * row + 8 * rail * p->nw + p->chunk[c];
                    u64 x = 0, *s = S + rail * ns + 8 * c, *t = T + rail * ns + 8 * c;
                    for (i32 i = 0; i < 8; ++i)
                        x |= (d8 >> i & 1) ? (u64)src[i * row] << (8 * i) : 0;
                    x = t8(x);
                    for (i32 k = 0; k < 8; ++k) {
                        s[k] = (s[k] & keep) | (((x >> (8 * k)) & 0xFF) << (8 * g8));
                        t[k] = (t[k] & keep) | (((x >> (8 * k)) & 0xFF) << (8 * g8));
                    }
                }
        }
        b->dirty[g] = 0;
        /* sources: inputs and constants hold, DFFs load their D nets */
        for (i32 rail = 0; rail < 2; ++rail) {
            const long o = rail * ns;
            for (i32 j = p->in0; j < p->in0 + p->n_in + p->n_const; ++j)
                T[o + j] = S[o + j];
            for (i32 k = 0; k < p->n_dff; ++k)
                T[o + p->dff0 + k] = S[o + p->dff_d[k]];
        }
        for (const i32 *f = b->dff_force; f < b->dff_force + 3 * n_force; f += 3)
            if (f[0] >= 64 * g && f[0] < 64 * g + 64) {
                const u64 bit = 1ULL << (f[0] - 64 * g);
                u64 *t = T + p->dff0 + f[1];
                t[0] = f[2] ? t[0] | bit : t[0] & ~bit;
                t[ns] = f[2] ? t[ns] & ~bit : t[ns] | bit;
            }
        /* ports, per lane: the dout bus, then the forced inputs */
        for (long r = 0; r < n; ++r) {
            const u64 *io = b->port + 5 * (64 * g + r);
            u64 m = 0, pv = 0, nv = 0;
            for (i32 k = 0; k < b->n_dout; ++k) {
                const u64 bit = 1ULL << b->dout[k], x = (io[1] >> k) & 1, v = (io[0] >> k) & 1;
                m |= bit;
                pv |= (x | v) ? bit : 0;
                nv |= (x | !v) ? bit : 0;
            }
            pv = (pv & ~io[2]) | io[3];
            nv = (nv & ~io[2]) | io[4];
            m |= io[2];
            for (i32 i = 0; i < p->n_in; ++i)
                if ((m >> i) & 1) {
                    u64 *t = T + p->in0 + i;
                    t[0] = (t[0] & ~(1ULL << r)) | (((pv >> i) & 1) << r);
                    t[ns] = (t[ns] & ~(1ULL << r)) | (((nv >> i) & 1) << r);
                }
        }
        /* source activity: changed, or X on an input, or X on a DFF whose D was active */
        for (i32 j = p->in0; j < p->in0 + p->n_in + p->n_const; ++j) {
            const u64 pv = T[j], nv = T[ns + j];
            T[2 * ns + j] = (pv ^ S[j]) | (nv ^ S[ns + j]) | (j < p->in0 + p->n_in ? pv & nv : 0);
        }
        for (i32 k = 0, j = p->dff0; k < p->n_dff; ++k, ++j) {
            const u64 pv = T[j], nv = T[ns + j];
            T[2 * ns + j] = (pv ^ S[j]) | (nv ^ S[ns + j]) | (pv & nv & S[2 * ns + p->dff_d[k]]);
        }
        /* gates, one run per (level, class): values and A in one pass */
        for (const i32 *R = p->run; R < p->run + 4 * p->n_runs; R += 4) {
            const i32 *f = p->ref + R[3];
            u64 *o = T + R[1];
            const u64 *q = S + R[1];
            for (i32 k = 0; k < R[2]; ++k) {
                u64 pv, nv, act;
                switch (R[0]) {
                case 0: /* copy: P, N */
                    pv = T[f[0]], nv = T[f[1]], act = T[f[2]], f += 3;
                    break;
                case 1: /* and: PA NA PB NB */
                    pv = T[f[0]] & T[f[2]], nv = T[f[1]] | T[f[3]];
                    act = T[f[4]] | T[f[5]], f += 6;
                    break;
                case 2: /* and_swap */
                    pv = T[f[1]] | T[f[3]], nv = T[f[0]] & T[f[2]];
                    act = T[f[4]] | T[f[5]], f += 6;
                    break;
                case 3: /* xor */
                    pv = (T[f[0]] & T[f[3]]) | (T[f[1]] & T[f[2]]);
                    nv = (T[f[0]] & T[f[2]]) | (T[f[1]] & T[f[3]]);
                    act = T[f[4]] | T[f[5]], f += 6;
                    break;
                case 4: /* xor_swap */
                    pv = (T[f[0]] & T[f[2]]) | (T[f[1]] & T[f[3]]);
                    nv = (T[f[0]] & T[f[3]]) | (T[f[1]] & T[f[2]]);
                    act = T[f[4]] | T[f[5]], f += 6;
                    break;
                default: /* mux: SN SP PA PB NA NB */
                    pv = (T[f[0]] & T[f[2]]) | (T[f[1]] & T[f[3]]);
                    nv = (T[f[0]] & T[f[4]]) | (T[f[1]] & T[f[5]]);
                    act = T[f[6]] | T[f[7]] | T[f[8]], f += 9;
                }
                o[k] = pv;
                o[ns + k] = nv;
                o[2 * ns + k] = (pv ^ q[k]) | (nv ^ q[ns + k]) | (pv & nv & act);
            }
        }
        /* probes: (value, xmask) of every registered bus, per lane */
        u64 *out = b->probe + 64 * g * nb;
        for (long k = 0; k < n * nb; ++k)
            out[k] = 0;
        for (i32 bus = 0; bus < b->n_bus; ++bus)
            for (i32 t = b->bus[bus]; t < b->bus[bus + 1]; ++t) {
                const i32 j = b->bus[b->n_bus + 1 + t], bit = t - b->bus[bus];
                const u64 v = T[j] & ~T[ns + j], x = T[j] & T[ns + j];
                for (long r = 0; r < n; ++r) {
                    out[r * nb + 2 * bus] |= ((v >> r) & 1) << bit;
                    out[r * nb + 2 * bus + 1] |= ((x >> r) & 1) << bit;
                }
            }
        /* write back the chunks that changed in some live row (the rows
           still hold S) */
        const u64 lanes = n < 64 ? (1ULL << n) - 1 : ~0ULL;
        for (i32 rail = 0; rail < 3; ++rail)
            for (i32 c = 0; c < p->n_chunks; ++c) {
                const u64 *t = T + rail * ns + 8 * c, *s = S + rail * ns + 8 * c;
                const u64 changed = lanes & (((t[0] ^ s[0]) | (t[1] ^ s[1]))
                    | ((t[2] ^ s[2]) | (t[3] ^ s[3])) | ((t[4] ^ s[4]) | (t[5] ^ s[5]))
                    | ((t[6] ^ s[6]) | (t[7] ^ s[7])));
                for (i32 g8 = 0; g8 < 8 && changed >> (8 * g8); ++g8) {
                    if (!((changed >> (8 * g8)) & 0xFF))
                        continue;
                    const i32 sh = 8 * g8;
                    u64 x = (((t[0] >> sh) & 0xFF) | (((t[1] >> sh) & 0xFF) << 8))
                        | ((((t[2] >> sh) & 0xFF) << 16) | (((t[3] >> sh) & 0xFF) << 24))
                        | ((((t[4] >> sh) & 0xFF) << 32) | (((t[5] >> sh) & 0xFF) << 40))
                        | ((((t[6] >> sh) & 0xFF) << 48) | (((t[7] >> sh) & 0xFF) << 56));
                    x = t8(x);
                    unsigned char *dst = rows + 8 * g8 * row + 8 * rail * p->nw + p->chunk[c];
                    for (long i = 0; i < 8 && 8 * g8 + i < n; ++i)
                        dst[i * row] = (unsigned char)(x >> (8 * i));
                }
            }
    }
    b->cur = !b->cur;
}

/* ---- pricing: per-row transition energies in integer attojoules ---- */
struct pricing {
    i32 nw, n_cols;
    const int64_t *e_rise, *e_fall;     /* per bit, aJ; pads are 0 */
    const i32 *col;                     /* per bit: 1 + module, 0 for none */
};

/* rows of (prev, cur) P/N planes -> (rows, n_cols) sums: the total, then
   one per module.  s holds the rail and row strides (in words) of prev,
   then of cur */
void repro_price(const struct pricing *t, const u64 *prev, const u64 *cur,
                 const long *s, long rows, int64_t *out)
{
    int64_t acc[t->n_cols];
    for (long r = 0; r < rows; ++r, out += t->n_cols) {
        const u64 *pp = prev + r * s[1], *pn = pp + s[0];
        const u64 *cp = cur + r * s[3], *cn = cp + s[2];
        for (i32 c = 0; c < t->n_cols; ++c)
            acc[c] = 0;
        for (i32 w = 0; w < t->nw; ++w) {
            const u64 tog = (pp[w] ^ cp[w]) | (pn[w] ^ cn[w]);
            for (u64 m = tog & cp[w]; m; m &= m - 1) {
                const long b = 64L * w + __builtin_ctzll(m);
                acc[t->col[b]] += t->e_rise[b];
            }
            for (u64 m = tog & ~cp[w]; m; m &= m - 1) {
                const long b = 64L * w + __builtin_ctzll(m);
                acc[t->col[b]] += t->e_fall[b];
            }
        }
        out[0] = acc[0];
        for (i32 c = 1; c < t->n_cols; ++c) {
            out[c] = acc[c];
            out[0] += acc[c];
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

#: -Og compiles in about half of -O1's time and runs the batch step as
#: fast; aligning the loops recovers -O2's settle speed (gcc 12, x86-64)
_CFLAGS = ("-Og", "-falign-loops=16", "-shared", "-fPIC", "-nostdlib")


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
    """The loaded kernels (one library per process, shared by all
    netlists): ``fn`` is ``repro_settle``, ``step`` ``repro_step`` and
    ``price`` ``repro_price``."""

    def __init__(self, path: Path, build_s: float):
        try:
            library = ctypes.CDLL(str(path))
            self.fn, self.step, self.price = (
                library.repro_settle, library.repro_step, library.repro_price
            )
        except (OSError, AttributeError) as exc:
            raise NativeKernelError(f"cannot load {path}: {exc}") from None
        self.fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long]
        self.step.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_long] * 2
        self.price.argtypes = (
            [ctypes.c_void_p] * 4 + [ctypes.c_long, ctypes.c_void_p]
        )
        for fn in (self.fn, self.step, self.price):
            fn.restype = None
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


class _Lanes(ctypes.Structure):
    """``struct lanes`` of :data:`SOURCE`."""

    _fields_ = [
        (name, ctypes.c_int32)
        for name in (
            "nw", "n_chunks", "in0", "n_in", "n_const", "dff0", "n_dff",
            "n_runs",
        )
    ] + [(name, ctypes.c_void_p) for name in ("chunk", "dff_d", "run", "ref")]


class LaneTables:
    """The lane-sliced schedule of a program: ``struct lanes`` + its arrays.

    A *slot* is a bit of :attr:`NetlistProgram.live_bytes`: the packed
    bit order with its all-pad bytes dropped, so eight slots are one
    byte of a row plane (a *chunk*) and a step moves lanes in and out of
    the rows a byte at a time.  The pads inside live bytes ride along
    untouched.  Each gate reads its input rails and activity through
    ``rail * n_slots + slot`` references decoded from the row schedule's
    gather tables, so the BUF/NOT chain collapse and the rail folding
    carry over unchanged.
    """

    def __init__(self, program: NetlistProgram):
        live = program.live_bytes
        #: net -> slot, and the row byte of each chunk
        self.slot_of = live.pos_of
        self.chunk = live.keep
        n_slots = 8 * self.chunk.size
        rank = np.full(program.n_words * 8, -1, dtype=np.int64)
        rank[self.chunk] = np.arange(self.chunk.size)

        def slot(pos):
            return 8 * rank[pos >> 3] + (pos & 7)

        # the sources are two contiguous slot ranges: inputs then
        # constants, and the DFFs
        n_in, n_const = program.input_nets.size, (
            program.const0_nets.size + program.const1_nets.size
        )
        sources = np.concatenate(
            [program.input_nets, program.const0_nets, program.const1_nets]
        )
        dffs = self.slot_of[program.dff_out]
        in0 = int(self.slot_of[sources[0]]) if sources.size else 0
        dff0 = int(dffs[0]) if dffs.size else 0
        if not (
            np.array_equal(self.slot_of[sources], in0 + np.arange(sources.size))
            and np.array_equal(dffs, dff0 + np.arange(dffs.size))
        ):
            raise NativeKernelError("sources are not contiguous slots")
        self.in0, self.n_in = in0, n_in

        plane_bytes = program.n_words * 8
        runs, refs, n_refs = [], [], 0
        for plan in program.levels:
            def decode(slots, plan=plan):
                rail, byte = np.divmod(plan.gather_bytes[slots], plane_bytes)
                bit = _BIT_OF_MASK[plan.gather_masks[slots]]
                return rail * n_slots + slot(byte * 8 + bit)

            for run in plan.runs:
                k = np.arange(run.n_gates)
                out = k + run.res_word * 64
                cols = [decode(block * 64 + k) for block in run.slot_words]
                cols.append(decode(plan.act0_word * 64 + out))
                if run.cls != "copy":
                    cols.append(decode(plan.act1_word * 64 + out))
                if run.cls == "mux":
                    cols.append(decode(plan.act2_word * 64 + k))
                first = slot((plan.word0 + run.res_word) * 64)
                runs.append((RUN_ORDER.index(run.cls), first, run.n_gates, n_refs))
                refs.append(np.stack(cols, axis=1).ravel())
                n_refs += refs[-1].size
        ref = np.concatenate(refs) if refs else np.zeros(1, dtype=np.int64)
        if ref.min() < 0 or ref.max() >= 1 << 31:
            raise NativeKernelError("a gate reads outside the lane slots")
        self.arrays = [
            np.ascontiguousarray(a, dtype=np.int32)
            for a in (
                self.chunk, self.slot_of[program.dff_d] if dffs.size else [0],
                runs or [0], ref,
            )
        ]
        self.table = _Lanes(
            program.n_words, self.chunk.size, in0, n_in, n_const, dff0,
            dffs.size, len(runs), *(a.ctypes.data for a in self.arrays),
        )
        self.ptr = ctypes.addressof(self.table)


class _Batch(ctypes.Structure):
    """``struct batch`` of :data:`SOURCE`."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "state", "dirty", "planes", "port", "dff_force", "dout", "bus",
            "probe",
        )
    ] + [(name, ctypes.c_int32) for name in ("n_dout", "n_bus", "cur")]


#: widest bus a probe result holds (value and xmask are one u64 each)
_MAX_BUS = 64


class BatchKernel:
    """One batch's lane-sliced state and port buffers for ``repro_step``.

    Each :class:`~repro.sim.batch.BatchMachine` owns one, so threads
    stepping different batches never share scratch.  The batch's row
    planes stay the source of truth between steps: rows the caller
    rewrote are flagged with :meth:`mark` and re-read at the next step,
    and every step writes the changed bytes of the live rows back.
    Buses are registered once (:meth:`bus_index`); every later step
    returns each lane's ``(value, xmask)`` of each of them.  The first
    four are the memory request: ``addr``, ``din``, ``en``, ``we``.
    """

    def __init__(self, kernel: NativeKernel, tables: LaneTables, planes, ports):
        self.fn = kernel.step
        self.tables = tables
        self.planes = planes
        rows = planes.shape[0]
        groups = -(-rows // 64)
        index = tables.slot_of - tables.in0  # input number of each net
        is_input = (index >= 0) & (index < tables.n_in)
        dout = np.asarray(ports.dout, dtype=np.int64)
        if tables.n_in > 64:
            raise NativeKernelError(
                f"the batch step drives at most 64 INPUT nets, the netlist "
                f"has {tables.n_in}"
            )
        if not is_input[dout].all():
            raise NativeKernelError(
                f"dout must drive INPUT nets; net "
                f"{int(dout[~is_input[dout]][0])} is not one"
            )
        inputs = index[dout]
        #: net -> bit of the forced-input masks
        self._input_bit = {
            int(net): 1 << int(index[net]) for net in np.flatnonzero(is_input)
        }
        self.state = np.zeros(
            (groups, 2, 3, 8 * tables.chunk.size), dtype=np.uint64
        )
        self.dirty = np.zeros(groups, dtype=np.uint64)
        self.port = np.zeros((rows, 5), dtype=np.uint64)
        self.dff_force = np.zeros((8, 3), dtype=np.int32)
        self.dout = inputs.astype(np.int32)
        self.struct = _Batch(
            *(a.ctypes.data for a in (
                self.state, self.dirty, planes, self.port, self.dff_force,
                self.dout,
            )),
            None, None, len(inputs), 0, 0,
        )
        self.ptr = ctypes.addressof(self.struct)
        self._bus: dict[tuple[int, ...], int] = {}
        self._by_id: dict[int, tuple] = {}
        self._bus_slots: list[np.ndarray] = []
        # the memory request always takes probe positions 0-3, even when
        # two of its buses share nets
        for nets in (ports.addr, ports.din, [ports.en], [ports.we]):
            if len(nets) > _MAX_BUS:
                raise NativeKernelError(
                    f"a memory-port bus is wider than {_MAX_BUS} bits"
                )
            self._add_bus(tuple(nets))

    def bus_index(self, nets) -> int:
        """Position of *nets* among the probed buses (registered on first
        use, so it is in the results from the next step on); -1 for a bus
        wider than a probe word.

        The CPU probes pass the same net lists every cycle, so a list seen
        before is found by identity (it is held, so its id stays unique);
        bus net lists must not be mutated.
        """
        seen = self._by_id.get(id(nets))
        if seen is not None and seen[0] is nets:
            return seen[1]
        key = tuple(nets)
        index = self._bus.get(key)
        if len(self._by_id) >= 64:  # one-off lists, e.g. single flag nets
            self._by_id.clear()
        if index is None:
            if len(key) > _MAX_BUS:
                return -1
            index = self._add_bus(key)
        self._by_id[id(nets)] = (nets, index)
        return index

    def _add_bus(self, key: tuple[int, ...]) -> int:
        """Probe *key* from the next step on; its position."""
        index = len(self._bus_slots)
        self._bus.setdefault(key, index)
        self._bus_slots.append(self.tables.slot_of[list(key)])
        sizes = [len(slots) for slots in self._bus_slots]
        self.bus = np.concatenate(
            [np.cumsum([0] + sizes)] + self._bus_slots
        ).astype(np.int32)
        self.probe = np.zeros(
            (self.planes.shape[0], 2 * len(sizes)), dtype=np.uint64
        )
        self.struct.bus = self.bus.ctypes.data
        self.struct.probe = self.probe.ctypes.data
        self.struct.n_bus = len(sizes)
        return index

    def force_masks(self, forced: dict[int, int]) -> tuple[int, int, int]:
        """Forced inputs -> (mask, P, N) over the input bits; ValueError
        naming the net when a forced net is not an INPUT."""
        mask = p_bits = n_bits = 0
        for net, value in forced.items():
            bit = self._input_bit.get(net)
            if bit is None:
                raise ValueError(
                    f"forced net {net} is not an INPUT: the batch step "
                    "forces only INPUT nets"
                )
            mask |= bit
            if value != 0:  # 1 and X raise the P ("can be 1") rail
                p_bits |= bit
            if value != 1:  # 0 and X raise the N ("can be 0") rail
                n_bits |= bit
        return mask, p_bits, n_bits

    def mark(self, dirty: int) -> None:
        """Flag rows (bit r = row r) to re-read from the planes."""
        for group in range(self.dirty.size):
            word = (dirty >> (64 * group)) & 0xFFFF_FFFF_FFFF_FFFF
            if word:
                self.dirty[group] |= np.uint64(word)

    def step(self, ports: list, forces: list) -> list[list[int]]:
        """Advance the first ``len(ports)`` rows one cycle.

        *ports* holds per row ``(dout value, dout xmask, forced mask, P,
        N)``; *forces* the one-shot ``(row, DFF index, value)`` loads.
        Returns per row the flat ``[value, xmask, ...]`` of every bus.
        """
        live = len(ports)
        self.port[:live] = ports
        if forces:
            if len(forces) > len(self.dff_force):
                self.dff_force = np.zeros((2 * len(forces), 3), dtype=np.int32)
                self.struct.dff_force = self.dff_force.ctypes.data
            self.dff_force[: len(forces)] = forces
        self.fn(self.tables.ptr, self.ptr, live, len(forces))
        return self.probe[:live].tolist()


class _Pricing(ctypes.Structure):
    """``struct pricing`` of :data:`SOURCE`."""

    _fields_ = [(name, ctypes.c_int32) for name in ("nw", "n_cols")] + [
        (name, ctypes.c_void_p) for name in ("e_rise", "e_fall", "col")
    ]


class Pricer:
    """``repro_price`` bound to one set of per-bit energy tables.

    *e_rise*/*e_fall* hold each bit's rising and falling transition
    energy in integer attojoules and *col* its output column (1 + module,
    0 for none); pads are 0 in all three.  A call prices rail-major
    ``(2, rows, n_words)`` ``(prev, cur)`` P/N planes into an ``(rows,
    n_cols)`` int64 block: column 0 the total, then one sum per module.
    """

    def __init__(self, kernel: NativeKernel, e_rise, e_fall, col, n_cols: int):
        self.fn = kernel.price
        self.arrays = [
            np.ascontiguousarray(e_rise, dtype=np.int64),
            np.ascontiguousarray(e_fall, dtype=np.int64),
            np.ascontiguousarray(col, dtype=np.int32),
        ]
        self.n_words = self.arrays[0].size // 64
        self.n_cols = n_cols
        self.table = _Pricing(
            self.n_words, n_cols, *(a.ctypes.data for a in self.arrays)
        )
        self.ptr = ctypes.addressof(self.table)

    def __call__(self, prev: np.ndarray, cur: np.ndarray, out: np.ndarray) -> None:
        rows = out.shape[0]
        shape = (2, rows, self.n_words)
        if (
            prev.shape != shape or cur.shape != shape
            or out.shape != (rows, self.n_cols) or out.dtype != np.int64
            or not out.flags["C_CONTIGUOUS"]
        ):
            raise ValueError(
                f"expected {shape} planes and a C-contiguous ({rows}, "
                f"{self.n_cols}) int64 block, got {prev.shape}, {cur.shape} "
                f"and {out.shape} {out.dtype}"
            )
        # any rail and row strides, but each row's words contiguous
        prev, cur = (
            a if a.dtype == np.uint64 and a.strides[2] == 8
            else np.ascontiguousarray(a, dtype=np.uint64)
            for a in (prev, cur)
        )
        strides = (ctypes.c_long * 4)(
            *(stride // 8 for a in (prev, cur) for stride in a.strides[:2])
        )
        self.fn(
            self.ptr, prev.ctypes.data, cur.ctypes.data, strides, rows,
            out.ctypes.data,
        )


def pricer(e_rise, e_fall, col, n_cols: int) -> Pricer | None:
    """A :class:`Pricer` over the given tables, or ``None`` when the
    kernels cannot be built or loaded (reported by the one process-wide
    fallback warning, never again)."""
    try:
        return Pricer(load_kernel(), e_rise, e_fall, col, n_cols)
    except NativeKernelError as exc:
        warn_fallback(exc)
        return None


# ----------------------------------------------------------------------
# Evaluator + fallback
# ----------------------------------------------------------------------
class NativeEvaluator(BitplaneEvaluator):
    """The packed engine: :class:`BitplaneEvaluator` state whose settle
    is one ``repro_settle`` call, and whose batches step through
    :meth:`batch_kernel`.

    Packing, DFF clocking and state fingerprints are inherited.  The
    previous-cycle planes of the activity rule are kept per thread and
    leading shape, so threads stepping machines of one CPU never share
    them.
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
        #: the lane-sliced schedule, built for the first batch
        self._lanes: LaneTables | None = None
        self._local = threading.local()

    def batch_kernel(self, planes: np.ndarray, ports) -> BatchKernel:
        """A :class:`BatchKernel` stepping *planes* (a batch's rows);
        :class:`NativeKernelError` names why *ports* cannot be driven
        through it."""
        if self._lanes is None:
            self._lanes = LaneTables(self.program)
        return BatchKernel(self.kernel, self._lanes, planes, ports)

    def _prev_planes(self, lead: tuple[int, ...]) -> np.ndarray:
        """This thread's previous-cycle planes for *lead*-shaped states."""
        scratch = getattr(self._local, "prev", None)
        if scratch is None:
            scratch = self._local.prev = {}
        prev = scratch.get(lead)
        if prev is None:
            prev = scratch[lead] = np.zeros(
                lead + (3, self.n_words), dtype=np.uint64
            )
        return prev

    def stash_prev(self, planes: np.ndarray) -> None:
        """Record the settled pre-step planes (activity's *previous*)."""
        np.copyto(self._prev_planes(planes.shape[:-2]), planes)

    def settle_and_mark(self, planes: np.ndarray) -> None:
        """Settle all levels and write the A plane, in place.

        :meth:`stash_prev` must have captured the planes at the end of
        the previous cycle (before the DFF/input updates of this one).
        """
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
    """One process-wide warning when the native kernels are unavailable."""
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    warnings.warn(
        f"native engine unavailable ({reason}); falling back to the "
        "reference engine and the numpy pricer (results are identical, "
        "simulation and pricing are slower)",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_fallback_warning() -> None:
    """Test hook: arm the fallback warning again."""
    global _fallback_warned
    _fallback_warned = False


def evaluator_or_fallback(netlist: Netlist, reference=None):
    """A :class:`NativeEvaluator`, or the reference engine when the
    kernels cannot be built or loaded.

    *reference* returns the :class:`LevelizedEvaluator` to fall back on
    (default: a new one).  The schedule compiles while the compiler runs,
    so a cold build overlaps it.  Never raises for missing toolchains —
    the paper pipeline must run anywhere.
    """
    start_build()
    program = NetlistProgram(netlist)
    try:
        return NativeEvaluator(netlist, program)
    except NativeKernelError as exc:
        warn_fallback(exc)
        return reference() if reference else LevelizedEvaluator(netlist)

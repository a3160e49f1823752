"""Native kernels: the lane-sliced gate schedule (a settle and a batch
step) and the transition-energy pricer.

The packed engine's per-cycle work lives in :data:`SOURCE`, one fixed C
translation unit with three entry points, called through ctypes (which
releases the GIL for the call):

    void repro_settle(const struct lanes *p, uint64_t *state,
                      const uint64_t *prev, long rows, uint64_t *scratch);
    long repro_run(const struct lanes *p, struct batch *b, long live,
                   long n_force, long max_steps);
    void repro_price(const struct pricing *t, const uint64_t *values,
                     const uint64_t *active, const uint64_t *max_prev,
                     const uint64_t *max_cur, const long *strides,
                     const long *pred, const long *target, long rows,
                     int64_t *out);

Both simulation entries run one gate schedule (:class:`LaneTables`) on
lane-sliced state — one ``u64`` per net and rail, one bit per row — so
the 5,641 gates of the ULP430 cost the same for 1 row as for 64.  A
source-activity pass and one pass per (level, class) gate run compute
the values and the paper's activity rule together.

``repro_settle`` settles C-contiguous ``(rows, 3, n_words)`` planes in
place, ``prev`` holding their stashed previous-cycle planes.  Per group
of up to 64 rows it slices in the previous values, the previous
activity of the DFFs' D nets and the current source values, runs the two
passes and writes every real net of the rows back; pads are never
written.  A single :class:`~repro.sim.machine.Machine` (reset, concrete
runs) uses it.

``repro_run`` advances a whole :class:`~repro.sim.batch.BatchMachine`
up to ``max_steps`` cycles in one call, keeping the batch lane-sliced
between steps and calls.  Each step serves every lane's fetch or load
from its :class:`~repro.sim.memory.TernaryMemory` arrays, read in place
(``serve_memory_read``'s rules), loads the DFFs (one-shot forces on the
first step only), forces ``dout`` and the forced inputs, runs the two
passes, writes the changed bytes of the live rows back, copies them and
their ``[cycle, reads, writes]`` meta into arena rows reserved by the
caller and latches each lane's memory request; a rewritten row is
re-read into the last cycle's state only.  The run returns after the
step in which some lane latches a store (the caller commits it, so
copy-on-write stays in Python) or meets one of the batch's stop rules
(:meth:`BatchKernel.set_stops`: a probed bus with an X, or known and
equal to a value), keeping each lane's dout register and request from
before that step.  It is the only packed batch step: a batch whose
ports it cannot drive is refused with a :class:`NativeKernelError` or a
:class:`ValueError` naming the reason.

``repro_price`` is the power model's transition-energy kernel
(:class:`Pricer`): per ``(pred, target)`` pair of row indices into
``(rows, 2, n_words)`` P/N planes it X-assigns the pair where the
target's activity words say so (Algorithm 2; none for a plain trace),
walks the set bits of the rising and falling edge words and sums their
integer attojoule energies, in total and per module, reading the rows
in place.  Integer sums do not depend on their order, so it agrees with
``assign_planes`` and the numpy pricer in :mod:`repro.power.model`
integer for integer.

Because the source never depends on the netlist, it compiles once per
(source, flags, compiler) digest into ``<cache>/native/<digest>.so``
(about 0.1 s) and one loaded library serves every netlist in the
process; the tables are handed over when an evaluator or a batch is
built.  :func:`start_build` compiles in the background; ``build_ulp430``
calls it before elaborating the CPU, so a cold build overlaps
elaboration and the schedule compile.

Bit identity with ``reference`` (the uint8 oracle) is a hard contract:
the differential suite pins values, A plane and memo ``state_bytes`` per
gate and per random netlist, the batch run against a reference-engine
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
from repro.sim.bitplane import BitplaneEvaluator
from repro.sim.evaluator import LevelizedEvaluator

#: the kernels
SOURCE = r"""
#include <stdint.h>
typedef uint64_t u64;
typedef int32_t i32;
/* -Og inlines nothing by itself */
#define INLINE static inline __attribute__((always_inline))

/* the gate schedule on lane-sliced state: one u64 per slot and rail */
struct lanes {
    i32 nw, n_src, in0, n_in, n_const, dff0, n_dff, n_runs;
    const unsigned char *real;  /* per chunk (row byte): the bits that hold a net */
    const i32 *dff_d;           /* slot of DFF k's D net */
    const i32 *run;             /* class first-slot gates first-ref */
    const i32 *ref;             /* per gate: value rails, then activity (rail * slots + slot) */
};

/* 8x8 bit transpose: bit i of byte k <-> bit k of byte i */
INLINE u64 t8(u64 x)
{
    u64 t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL; x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL; x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL; x ^= t ^ (t << 28);
    return x;
}

/* source activity: changed, or X on an input, or X on a DFF whose D was
   active.  T is this cycle, S the last one */
static void source_activity(const struct lanes *p, u64 *T, const u64 *S)
{
    const long ns = 64L * p->nw;
    for (i32 j = p->in0; j < p->in0 + p->n_in + p->n_const; ++j) {
        const u64 pv = T[j], nv = T[ns + j];
        T[2 * ns + j] = (pv ^ S[j]) | (nv ^ S[ns + j]) | (j < p->in0 + p->n_in ? pv & nv : 0);
    }
    for (i32 k = 0, j = p->dff0; k < p->n_dff; ++k, ++j) {
        const u64 pv = T[j], nv = T[ns + j];
        T[2 * ns + j] = (pv ^ S[j]) | (nv ^ S[ns + j]) | (pv & nv & S[2 * ns + p->dff_d[k]]);
    }
}

/* gates, one run per (level, class): values and A in one pass */
static void settle_gates(const struct lanes *p, u64 *T, const u64 *S)
{
    const long ns = 64L * p->nw;
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
}

/* the 8 row bytes of one chunk for lanes [sh, sh + 8) of its 8 slot words */
INLINE u64 chunk_rows(const u64 *l, i32 sh)
{
    return t8((((l[0] >> sh) & 0xFF) | (((l[1] >> sh) & 0xFF) << 8))
        | ((((l[2] >> sh) & 0xFF) << 16) | (((l[3] >> sh) & 0xFF) << 24))
        | ((((l[4] >> sh) & 0xFF) << 32) | (((l[5] >> sh) & 0xFF) << 40))
        | ((((l[6] >> sh) & 0xFF) << 48) | (((l[7] >> sh) & 0xFF) << 56)));
}

/* ---- the settle: rows in, lanes, rows out ---- */

/* the first c1 chunks of one rail of n <= 64 rows (row bytes apart) -> lane words */
static void slice(u64 *L, const unsigned char *rows, long row, long n, i32 c1)
{
    for (i32 c = 0; c < c1; ++c) {
        u64 *l = L + 8 * c;
        l[0] = l[1] = l[2] = l[3] = l[4] = l[5] = l[6] = l[7] = 0;
        for (long g8 = 0; 8 * g8 < n; ++g8) {
            const unsigned char *src = rows + 8 * g8 * row + c;
            const i32 sh = 8 * g8;
            u64 x = 0;
            for (long i = 0; i < 8 && 8 * g8 + i < n; ++i)
                x |= (u64)src[i * row] << (8 * i);
            x = t8(x);
            l[0] |= (x & 0xFF) << sh, l[1] |= ((x >> 8) & 0xFF) << sh;
            l[2] |= ((x >> 16) & 0xFF) << sh, l[3] |= ((x >> 24) & 0xFF) << sh;
            l[4] |= ((x >> 32) & 0xFF) << sh, l[5] |= ((x >> 40) & 0xFF) << sh;
            l[6] |= ((x >> 48) & 0xFF) << sh, l[7] |= (x >> 56) << sh;
        }
    }
}

/* lane words -> the real bits of chunks [c0, c1) of one rail of n rows */
static void unslice(unsigned char *rows, const u64 *L, long row, long n,
                    const struct lanes *p, i32 c0, i32 c1)
{
    for (i32 c = c0; c < c1; ++c) {
        const unsigned char real = p->real[c];
        for (long g8 = 0; 8 * g8 < n; ++g8) {
            const u64 x = chunk_rows(L + 8 * c, 8 * g8);
            unsigned char *dst = rows + 8 * g8 * row + c;
            for (long i = 0; i < 8 && 8 * g8 + i < n; ++i)
                dst[i * row] = (dst[i * row] & ~real) | ((x >> (8 * i)) & real);
        }
    }
}

/* settle (rows, 3, nw) planes in place; prev holds their previous-cycle
   planes, W scratch for two lane-sliced states (6 * 64 * nw words) */
void repro_settle(const struct lanes *p, u64 *state, const u64 *prev, long rows, u64 *W)
{
    const long ns = 64L * p->nw, row = 24L * p->nw;
    u64 *S = W, *T = W + 3 * ns;    /* last cycle, this cycle */
    for (long r0 = 0; r0 < rows; r0 += 64) {
        const long n = rows - r0 < 64 ? rows - r0 : 64;
        const unsigned char *old = (const unsigned char *)prev + r0 * row;
        unsigned char *cur = (unsigned char *)state + r0 * row;
        /* last cycle's values, this cycle's sources */
        for (i32 rail = 0; rail < 2; ++rail) {
            slice(S + rail * ns, old + 8 * rail * p->nw, row, n, 8 * p->nw);
            slice(T + rail * ns, cur + 8 * rail * p->nw, row, n, p->n_src);
        }
        /* last cycle's activity where the DFF rule reads it: the D nets */
        for (i32 k = 0; k < p->n_dff; ++k) {
            const i32 d = p->dff_d[k];
            const unsigned char *a = old + 16 * p->nw + (d >> 3);
            u64 lanes = 0;
            for (long r = 0; r < n; ++r)
                lanes |= (u64)((a[r * row] >> (d & 7)) & 1) << r;
            S[2 * ns + d] = lanes;
        }
        source_activity(p, T, S);
        settle_gates(p, T, S);
        /* the gates' values, and all activity */
        for (i32 rail = 0; rail < 3; ++rail)
            unslice(cur + 8 * rail * p->nw, T + rail * ns, row, n, p,
                    rail < 2 ? p->n_src : 0, 8 * p->nw);
    }
}

/* ---- the batch run: the batch stays lane-sliced between steps ---- */

/* a lane's port words: its dout register, forced inputs (mask, P, N),
   cycle and memory request (addr, din, en, we: value and xmask each),
   then its dout register and request before its last step */
enum { DOUT, DOUT_X, FORCED, FORCED_P, FORCED_N, CYCLE, REQ, BEFORE = REQ + 8,
       PORT_WORDS = BEFORE + 10 };

struct batch {
    u64 *state;             /* per 64-lane group: 2 buffers of 3 rails x slots */
    u64 *dirty;             /* per group: lanes whose rows Python rewrote */
    u64 *planes;            /* the (rows, 3, nw) row-packed planes */
    u64 *port;              /* per lane: PORT_WORDS words */
    const u64 *mem;         /* per lane: its memory's words and xmask (u16) and size */
    const i32 *dff_force;   /* (row, DFF, value) triples */
    const i32 *dout;        /* input of dout bit b */
    const i32 *bus;         /* n_bus + 1 offsets into the slots that follow */
    u64 *probe;             /* per lane and bus: value, xmask */
    const u64 *stop;        /* per stop rule: bus, kind (0: an X, 1: known and equal), value */
    u64 *rows;              /* the arena rows a run fills, step-major */
    double *meta;           /* and their [cycle, reads, writes] */
    i32 n_dout, n_bus, n_stop, cur, fault;
};

/* spread[v]: bit k of byte v at bit 8k, one row's column of an 8x8 transpose */
#define S1(v) (((v) & 1ULL) | ((v) >> 1 & 1ULL) << 8 | ((v) >> 2 & 1ULL) << 16 \
    | ((v) >> 3 & 1ULL) << 24 | ((v) >> 4 & 1ULL) << 32 | ((v) >> 5 & 1ULL) << 40 \
    | ((v) >> 6 & 1ULL) << 48 | ((v) >> 7 & 1ULL) << 56)
#define S4(v) S1(v), S1(v + 1), S1(v + 2), S1(v + 3)
#define S16(v) S4(v), S4(v + 4), S4(v + 8), S4(v + 12)
#define S64(v) S16(v), S16(v + 16), S16(v + 32), S16(v + 48)
static const u64 spread[256] = { S64(0), S64(64), S64(128), S64(192) };

/* serve_memory_read's rules: lane r's dout register from its request,
   the cycle and access counts into m; 0, or 1 for an address past the
   lane's memory */
INLINE int serve(struct batch *b, long r, double *m)
{
    u64 *io = b->port + PORT_WORDS * r;
    const u64 *q = io + REQ, *mem = b->mem + 3 * r;
    for (i32 k = 0; k < 10; ++k)
        io[BEFORE + k] = io[k < 2 ? DOUT + k : REQ + k - 2];
    m[0] = (double)io[CYCLE]++, m[1] = 0.0, m[2] = (q[6] | q[7]) ? 1.0 : 0.0;
    if (!q[4] && !q[5])     /* enable 0 */
        return 0;
    u64 v = 0, x = 0xFFFF;  /* an X address reads all-X */
    if (!q[1]) {
        if (q[0] >= mem[2])
            return 1;
        v = ((const uint16_t *)mem[0])[q[0]], x = ((const uint16_t *)mem[1])[q[0]];
    }
    if (q[5]) {             /* enable X: the bits that may differ go X */
        const u64 d = (io[DOUT] ^ v) | io[DOUT_X] | x;
        io[DOUT] &= ~d & 0xFFFF, io[DOUT_X] = d & 0xFFFF;
    } else
        io[DOUT] = v, io[DOUT_X] = x;
    m[1] = 1.0;
    return 0;
}

/* advance the first `live` rows of the batch one cycle */
static void step(const struct lanes *p, struct batch *b, long live, long n_force)
{
    const long ns = 64L * p->nw, row = 24L * p->nw, nb = 2L * b->n_bus;
    for (long g = 0; 64 * g < live; ++g) {
        const long n = live - 64 * g < 64 ? live - 64 * g : 64;
        u64 *S = b->state + (2 * g + b->cur) * 3 * ns;      /* last cycle */
        u64 *T = b->state + (2 * g + !b->cur) * 3 * ns;     /* this cycle */
        unsigned char *rows = (unsigned char *)b->planes + 64 * g * row;
        /* re-read the rows Python rewrote into S, the last cycle, a chunk
           (row byte) at a time.  T takes none: a step computes every real
           slot of T, and the pads hold a known 0 in every row and in both
           buffers */
        for (i32 g8 = 0; g8 < 8; ++g8) {
            const u64 d8 = (b->dirty[g] >> (8 * g8)) & 0xFF, keep = ~(d8 << (8 * g8));
            if (!d8)
                continue;
            const unsigned char *src = rows + 8 * g8 * row;
            for (long c = 0; c < 24L * p->nw; ++c) {
                u64 x = 0, *s = S + 8 * c;
                for (u64 m = d8; m; m &= m - 1) {
                    const i32 i = __builtin_ctzll(m);
                    x |= spread[src[i * row + c]] << i;
                }
                for (i32 k = 0; k < 8; ++k)
                    s[k] = (s[k] & keep) | (((x >> (8 * k)) & 0xFF) << (8 * g8));
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
            const u64 *io = b->port + PORT_WORDS * (64 * g + r);
            u64 m = 0, pv = 0, nv = 0;
            for (i32 k = 0; k < b->n_dout; ++k) {
                const u64 bit = 1ULL << b->dout[k], x = (io[DOUT_X] >> k) & 1;
                const u64 v = (io[DOUT] >> k) & 1;
                m |= bit;
                pv |= (x | v) ? bit : 0;
                nv |= (x | !v) ? bit : 0;
            }
            pv = (pv & ~io[FORCED]) | io[FORCED_P];
            nv = (nv & ~io[FORCED]) | io[FORCED_N];
            m |= io[FORCED];
            for (i32 i = 0; i < p->n_in; ++i)
                if ((m >> i) & 1) {
                    u64 *t = T + p->in0 + i;
                    t[0] = (t[0] & ~(1ULL << r)) | (((pv >> i) & 1) << r);
                    t[ns] = (t[ns] & ~(1ULL << r)) | (((nv >> i) & 1) << r);
                }
        }
        source_activity(p, T, S);
        settle_gates(p, T, S);
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
            for (i32 c = 0; c < 8 * p->nw; ++c) {
                const u64 *t = T + rail * ns + 8 * c, *s = S + rail * ns + 8 * c;
                const u64 changed = lanes & (((t[0] ^ s[0]) | (t[1] ^ s[1]))
                    | ((t[2] ^ s[2]) | (t[3] ^ s[3])) | ((t[4] ^ s[4]) | (t[5] ^ s[5]))
                    | ((t[6] ^ s[6]) | (t[7] ^ s[7])));
                for (i32 g8 = 0; g8 < 8 && changed >> (8 * g8); ++g8) {
                    if (!((changed >> (8 * g8)) & 0xFF))
                        continue;
                    const u64 x = chunk_rows(t, 8 * g8);
                    unsigned char *dst = rows + 8 * g8 * row + 8 * rail * p->nw + c;
                    for (long i = 0; i < 8 && 8 * g8 + i < n; ++i)
                        dst[i * row] = (unsigned char)(x >> (8 * i));
                }
            }
    }
    b->cur = !b->cur;
}

/* step the first `live` rows until some lane latches a store or meets a
   stop rule, or for max_steps cycles; the number of steps taken.  Each
   step serves every lane's memory read first and ends with the live rows
   and their meta in the arena and each lane's request latched */
long repro_run(const struct lanes *p, struct batch *b, long live, long n_force,
               long max_steps)
{
    const long words = 3L * p->nw, nb = 2L * b->n_bus;
    long s = 0;
    b->fault = 0;
    while (s < max_steps) {
        for (long r = 0; r < live; ++r)
            if (serve(b, r, b->meta + 3 * (s * live + r))) {
                b->fault = 1;
                return s;
            }
        step(p, b, live, s ? 0 : n_force);
        u64 *out = b->rows + s * live * words;
        for (long k = 0; k < live * words; ++k)
            out[k] = b->planes[k];
        int stop = 0;
        for (long r = 0; r < live; ++r) {
            u64 *q = b->port + PORT_WORDS * r + REQ;
            const u64 *pr = b->probe + r * nb;
            for (i32 k = 0; k < 8; ++k)
                q[k] = pr[k];
            stop |= (q[6] | q[7]) != 0;
            for (const u64 *t = b->stop; t < b->stop + 3 * b->n_stop; t += 3)
                stop |= t[1] ? !pr[2 * t[0] + 1] && pr[2 * t[0]] == t[2]
                             : pr[2 * t[0] + 1] != 0;
        }
        ++s;
        if (stop)
            break;
    }
    return s;
}

/* ---- pricing: per-row transition energies in integer attojoules ---- */
struct pricing {
    i32 nw, n_cols;
    const int64_t *e_rise, *e_fall;     /* per bit, aJ; pads are 0 */
    const i32 *col;                     /* per bit: 1 + module, 0 for none */
};

/* add the edges of word w (toggled bits tog, current P word cp) to row o:
   the bits' energies go to their column (0 for no module) */
INLINE void price_word(const struct pricing *t, int64_t *o, i32 w, u64 tog, u64 cp)
{
    const i32 *col = t->col + 64L * w;
    const int64_t *rise = t->e_rise + 64L * w, *fall = t->e_fall + 64L * w;
    for (u64 m = tog & cp; m; m &= m - 1)
        o[col[__builtin_ctzll(m)]] += rise[__builtin_ctzll(m)];
    for (u64 m = tog & ~cp; m; m &= m - 1)
        o[col[__builtin_ctzll(m)]] += fall[__builtin_ctzll(m)];
}

/* per row r, the pair (rows pred[r], target[r]) of the P/N planes v ->
   row r of the (rows, n_cols) sums: the total, then one per module.  The
   pair is first X-assigned by assign_planes' rules where the target's
   activity words a are set, with the max-power transition's start and
   end P words mp, mc.  s holds v's rail and row strides and a's row
   stride (0: one row for all), in words */
void repro_price(const struct pricing *t, const u64 *v, const u64 *a,
                 const u64 *mp, const u64 *mc, const long *s,
                 const long *pred, const long *target, long rows, int64_t *out)
{
    for (long r = 0; r < rows; ++r, out += t->n_cols) {
        const u64 *pp = v + pred[r] * s[1], *pn = pp + s[0];
        const u64 *cp = v + target[r] * s[1], *cn = cp + s[0], *act = a + target[r] * s[2];
        for (i32 c = 0; c < t->n_cols; ++c)
            out[c] = 0;
        for (i32 w = 0; w < t->nw; ++w) {
            const u64 px = pp[w] & pn[w], cx = cp[w] & cn[w], both = act[w] & px & cx;
            const u64 prev_x = act[w] & px & ~cx, cur_x = act[w] & cx & ~px;
            const u64 nc = cp[w] & ~((cur_x & ~pn[w]) | (both & ~mc[w]));
            const u64 np = pp[w] & ~((prev_x & ~cn[w]) | (both & ~mp[w]));
            const u64 nn = pn[w] & ~((prev_x & ~cp[w]) | (both & mp[w]));
            const u64 ncn = cn[w] & ~((cur_x & ~pp[w]) | (both & mc[w]));
            price_word(t, out, w, (np ^ nc) | (nn ^ ncn), nc);
        }
        for (i32 c = 1; c < t->n_cols; ++c)
            out[0] += out[c];
    }
}
"""

#: compilers probed (after ``$CC``) when building the shared object
_COMPILERS = ("cc", "gcc", "clang")

#: -Og compiles in about half of -O1's time and runs the batch step as
#: fast; with the 8x8 transposes forced inline (``INLINE`` in the source)
#: the settle runs as fast as at -O2 (gcc 12, x86-64)
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
                status = (
                    f"exit status {proc.returncode}" if proc.returncode > 0
                    else f"signal {-proc.returncode}"
                )
                output = (proc.stderr or proc.stdout).strip()[:500]
                self.error = f"C compile failed ({argv[0]}, {status})" + (
                    f": {output}" if output else ""
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


class NativeKernel:
    """The loaded kernels (one library per process, shared by all
    netlists): ``settle`` is ``repro_settle``, ``run`` ``repro_run``
    and ``price`` ``repro_price``."""

    def __init__(self, path: Path, build_s: float):
        try:
            library = ctypes.CDLL(str(path))
            self.settle, self.run, self.price = (
                library.repro_settle, library.repro_run, library.repro_price
            )
        except (OSError, AttributeError) as exc:
            raise NativeKernelError(f"cannot load {path}: {exc}") from None
        self.settle.argtypes = (
            [ctypes.c_void_p] * 3 + [ctypes.c_long, ctypes.c_void_p]
        )
        self.run.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_long] * 3
        self.price.argtypes = (
            [ctypes.c_void_p] * 8 + [ctypes.c_long, ctypes.c_void_p]
        )
        for fn in (self.settle, self.price):
            fn.restype = None
        self.run.restype = ctypes.c_long
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


def load_kernel() -> NativeKernel:
    """The process's kernel: loaded once, compiled first if not cached."""
    global _KERNEL, _BUILD
    with _LOCK:
        if _KERNEL is None:
            build, _BUILD = _BUILD or _Build(), None
            _KERNEL = NativeKernel(*build.wait())
        return _KERNEL


class _Lanes(ctypes.Structure):
    """``struct lanes`` of :data:`SOURCE`."""

    _fields_ = [
        (name, ctypes.c_int32)
        for name in (
            "nw", "n_src", "in0", "n_in", "n_const", "dff0", "n_dff",
            "n_runs",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in ("real", "dff_d", "run", "ref")
    ]


class LaneTables:
    """The lane-sliced gate schedule of a program: ``struct lanes`` + its
    arrays, shared by the settle and every batch step.

    A *slot* is a bit position of the program's packed order, so eight
    slots are one byte of a row plane (a *chunk*) and the kernels move
    rows in and out of lanes a byte at a time.  The source slots fill
    the first ``n_src`` chunks.  Each gate reads its input rails and
    activity through ``rail * n_slots + slot`` references to the slots
    :meth:`NetlistProgram.gate_reads` names, so the BUF/NOT chain
    collapse and the rail folding carry over unchanged.
    """

    def __init__(self, program: NetlistProgram):
        #: net -> slot
        self.slot_of = program.pos_of
        self.n_slots = n_slots = program.n_bits

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
        n_src = -(-max(in0 + sources.size, dff0 + dffs.size) // 8)

        runs, refs, n_refs = [], [], 0
        for run in program.runs:
            rail, pos = np.array(
                [program.gate_reads(gate) for gate in run.gates], dtype=np.int64
            ).T
            refs.append((rail * n_slots + pos).T.ravel())
            first = int(self.slot_of[run.gates[0]])
            runs.append((RUN_ORDER.index(run.cls), first, len(run.gates), n_refs))
            n_refs += refs[-1].size
        ref = np.concatenate(refs) if refs else np.zeros(1, dtype=np.int64)
        if ref.min() < 0 or ref.max() >= 1 << 31:
            raise NativeKernelError("a gate reads outside the lane slots")
        self.arrays = [program.valid_mask.view(np.uint8)] + [
            np.ascontiguousarray(a, dtype=np.int32)
            for a in (
                self.slot_of[program.dff_d] if dffs.size else [0],
                runs or [0], ref,
            )
        ]
        self.table = _Lanes(
            program.n_words, n_src, in0, n_in, n_const,
            dff0, dffs.size, len(runs), *(a.ctypes.data for a in self.arrays),
        )
        self.ptr = ctypes.addressof(self.table)


class _Batch(ctypes.Structure):
    """``struct batch`` of :data:`SOURCE`."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "state", "dirty", "planes", "port", "mem", "dff_force", "dout",
            "bus", "probe", "stop", "rows", "meta",
        )
    ] + [
        (name, ctypes.c_int32)
        for name in ("n_dout", "n_bus", "n_stop", "cur", "fault")
    ]


#: widest bus a probe result holds (value and xmask are one u64 each)
_MAX_BUS = 64

#: a lane's port words in ``repro_run`` (its ``enum``): dout value and
#: xmask, forced mask, P and N, cycle, the request from ``REQUEST`` on,
#: then from ``BEFORE`` on the dout register and request before the last
#: step
REQUEST, BEFORE, PORT_WORDS = 6, 14, 24


class BatchKernel:
    """One batch's lane-sliced state and port buffers for ``repro_run``.

    Each :class:`~repro.sim.batch.BatchMachine` owns one, so threads
    stepping different batches never share scratch.  The batch's row
    planes stay the source of truth between runs: rows the caller
    rewrote are flagged with :meth:`mark` and re-read at the next run,
    and every step writes the changed bytes of the live rows back.
    Buses are registered once (:meth:`bus_index`); every later run
    leaves them as columns of one probe array, each lane's ``value``
    and ``xmask`` of each bus after the last step.  The first four are
    the memory request: ``addr``, ``din``, ``en``, ``we``.
    """

    def __init__(self, kernel: NativeKernel, tables: LaneTables, planes, ports):
        self.fn = kernel.run
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
            (groups, 2, 3, tables.n_slots), dtype=np.uint64
        )
        # every lane's pads hold a known 0 (P=0, N=1) in both buffers,
        # as in every row, so a re-read row needs only the last cycle's
        real = np.unpackbits(tables.arrays[0], bitorder="little")
        self.state[:, :, 1, real == 0] = ~np.uint64(0)
        self.dirty = np.zeros(groups, dtype=np.uint64)
        #: per lane: its port words (:data:`PORT_WORDS`), and its
        #: memory's ``words`` and ``xmask`` addresses and size
        self.port = np.zeros((rows, PORT_WORDS), dtype=np.uint64)
        self.mem = np.zeros((rows, 3), dtype=np.uint64)
        self.dff_force = np.zeros((8, 3), dtype=np.int32)
        self.dout = inputs.astype(np.int32)
        self.stop = np.zeros((1, 3), dtype=np.uint64)
        self.struct = _Batch(
            *(a.ctypes.data for a in (
                self.state, self.dirty, planes, self.port, self.mem,
                self.dff_force, self.dout,
            )),
            None, None, self.stop.ctypes.data, None, None,
            len(inputs), 0, 0, 0, 0,
        )
        self.ptr = ctypes.addressof(self.struct)
        self._bus: dict[tuple[int, ...], int] = {}
        self._bus_slots: list[np.ndarray] = []
        # the memory request always takes probe positions 0-3, even when
        # two of its buses share nets
        for nets in (ports.addr, ports.din, [ports.en], [ports.we]):
            if len(nets) > _MAX_BUS:
                raise NativeKernelError(
                    f"a memory-port bus is wider than {_MAX_BUS} bits"
                )
            self._add_bus(tuple(nets))

    def set_stops(self, stops) -> None:
        """End a run after the step in which some lane meets one of
        *stops*, ``(nets, value)`` pairs: the bus *nets* holds an X
        (*value* ``None``), or is known and equal to *value*."""
        table = [
            (self.bus_index(nets), value is not None, value or 0)
            for nets, value in stops
        ]
        self.stop = np.array(table or [(0, 0, 0)], dtype=np.uint64)
        self.struct.stop = self.stop.ctypes.data
        self.struct.n_stop = len(table)

    def bus_index(self, nets) -> int:
        """Position of *nets* among the probed buses, registered on first
        use (so it is in the results from the next step on).  A bus wider
        than a probe word is a ``ValueError``."""
        key = tuple(nets)
        index = self._bus.get(key)
        if index is None:
            if len(key) > _MAX_BUS:
                raise ValueError(
                    f"a probed bus holds at most {_MAX_BUS} nets, got {len(key)}"
                )
            index = self._add_bus(key)
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

    @staticmethod
    def memory_pointers(words: np.ndarray, xmask: np.ndarray) -> tuple:
        """The ``(words, xmask, size)`` a run reads a lane's memory from,
        for two contiguous uint16 arrays of one length; the caller keeps
        them alive while runs read them."""
        if not (
            words.dtype == xmask.dtype == np.uint16
            and words.shape == xmask.shape == (len(words),)
            and words.flags["C_CONTIGUOUS"] and xmask.flags["C_CONTIGUOUS"]
        ):
            raise ValueError(
                "a lane's memory must be two contiguous uint16 arrays of "
                "one length"
            )
        return words.ctypes.data, xmask.ctypes.data, len(words)

    def run(self, ports: list, memories: list, forces: list,
            max_steps: int, rows: np.ndarray, meta: np.ndarray) -> int:
        """Advance the first ``len(ports)`` rows up to *max_steps* cycles,
        stopping after a store or a stop rule; the steps taken.

        *ports* holds per row its first :data:`BEFORE` port words, and
        *memories* its memory's :meth:`memory_pointers`, whose arrays the
        run reads in place and never writes; *forces* the one-shot
        ``(row, DFF index, value)`` loads of the first step.  Step *s*
        writes row *r*'s planes and meta to ``rows[s * live + r]`` and
        ``meta[s * live + r]``.  The port words and the probe array then
        hold each row's state after the last step.  An address past a
        lane's memory is an ``IndexError``.
        """
        live = len(ports)
        words = self.tables.table.nw
        if (
            max_steps < 1 or len(rows) < max_steps * live
            or len(meta) < max_steps * live
            or rows.shape[1:] != (3, words) or rows.dtype != np.uint64
            or meta.shape[1:] != (3,) or meta.dtype != np.float64
            or not (rows.flags["C_CONTIGUOUS"] and meta.flags["C_CONTIGUOUS"])
        ):
            raise ValueError(
                f"a run of {max_steps} steps of {live} rows needs that many "
                f"C-contiguous (3, {words}) uint64 rows and float64 meta"
            )
        self.port[:live, :BEFORE] = ports
        self.mem[:live] = memories
        if forces:
            if len(forces) > len(self.dff_force):
                self.dff_force = np.zeros((2 * len(forces), 3), dtype=np.int32)
                self.struct.dff_force = self.dff_force.ctypes.data
            self.dff_force[: len(forces)] = forces
        self.struct.rows, self.struct.meta = rows.ctypes.data, meta.ctypes.data
        steps = self.fn(self.tables.ptr, self.ptr, live, len(forces), max_steps)
        if self.struct.fault:
            raise IndexError("a memory read past the end of a lane's memory")
        return steps


class _Pricing(ctypes.Structure):
    """``struct pricing`` of :data:`SOURCE`."""

    _fields_ = [(name, ctypes.c_int32) for name in ("nw", "n_cols")] + [
        (name, ctypes.c_void_p) for name in ("e_rise", "e_fall", "col")
    ]


class Pricer:
    """``repro_price`` bound to one set of per-bit energy tables.

    *e_rise*/*e_fall* hold each bit's rising and falling transition
    energy in integer attojoules and *col* its output column (1 + module,
    0 for none); pads are 0 in all three.  A call prices row pairs of
    ``(n, 2, n_words)`` P/N rows, read in place, into an ``(rows,
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
        #: ``assign`` of a plain pricing: no activity (one row for all)
        self.no_assign = (np.zeros((1, self.n_words), dtype=np.uint64),) + (
            np.zeros(self.n_words, dtype=np.uint64),
        ) * 2

    def __call__(self, values, pairs, out: np.ndarray, assign=None) -> None:
        """Price ``(values[pred[r]], values[target[r]])`` for the
        ``(pred, target)`` row indices *pairs* into *out*.  *assign* is
        ``(active, max_prev, max_cur)``: the rows' ``(n, n_words)``
        activity words and the P words of the max-power transition's
        start and end, by which each pair is X-assigned first
        (:func:`repro.power.model.assign_planes`' rules)."""
        n, rows, nw = len(values), len(out), self.n_words
        active, *maxes = assign or self.no_assign
        pred, target = (np.ascontiguousarray(a, np.int64) for a in pairs)
        arrays = [
            a if a.dtype == np.uint64 and a.strides[-1] == 8
            else np.ascontiguousarray(a, dtype=np.uint64)
            for a in (values, active, *maxes)
        ]
        shapes = [(n, 2, nw), (len(active), nw), (nw,), (nw,)]
        if (
            [a.shape for a in arrays] != shapes or len(active) not in (1, n)
            or out.shape != (rows, self.n_cols) or out.dtype != np.int64
            or not out.flags["C_CONTIGUOUS"]
            or {pred.shape, target.shape} != {(rows,)}
            or rows and not 0 <= min(pred.min(), target.min())
            or rows and max(pred.max(), target.max()) >= n
        ):
            raise ValueError(
                f"expected {rows} row pairs within {shapes[0]} planes and a "
                f"C-contiguous ({rows}, {self.n_cols}) int64 block"
            )
        values, active = arrays[:2]
        strides = (ctypes.c_long * 3)(
            values.strides[1] // 8, values.strides[0] // 8,
            active.strides[0] // 8 if len(active) > 1 else 0,
        )
        self.fn(
            self.ptr, *(a.ctypes.data for a in arrays), strides,
            pred.ctypes.data, target.ctypes.data, rows, out.ctypes.data,
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
    :meth:`batch_kernel`; both run :attr:`lanes`.

    *program* and *lanes* are the netlist's gate schedule.  A caller that
    owns one (the elaborated CPU, see ``Ulp430.gate_schedule``) hands
    both in, *lanes* being ``LaneTables(program)``; what is not handed in
    is built here.  The kernel is always this process's
    (:func:`load_kernel`), never part of the schedule.

    Packing, DFF clocking and state fingerprints are inherited.  The
    previous-cycle planes of the activity rule are kept per thread and
    leading shape, and the settle's lane words per thread, so threads
    stepping machines of one CPU never share them.
    """

    engine_name = "native"

    def __init__(
        self,
        netlist: Netlist,
        program: NetlistProgram | None = None,
        kernel: NativeKernel | None = None,
        lanes: LaneTables | None = None,
    ):
        super().__init__(netlist, program)
        # built while a cold kernel compile may still be running
        self.lanes = LaneTables(self.program) if lanes is None else lanes
        self.kernel = kernel or load_kernel()
        self._local = threading.local()

    def batch_kernel(self, planes: np.ndarray, ports) -> BatchKernel:
        """A :class:`BatchKernel` stepping *planes* (a batch's rows);
        :class:`NativeKernelError` names why *ports* cannot be driven
        through it."""
        return BatchKernel(self.kernel, self.lanes, planes, ports)

    def _scratch(self, lead: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """This thread's previous-cycle planes for *lead*-shaped states,
        and its lane words for the settle."""
        local = self._local
        if not hasattr(local, "prev"):
            local.prev = {}
            local.lanes = np.empty(6 * self.lanes.n_slots, dtype=np.uint64)
        prev = local.prev.get(lead)
        if prev is None:
            prev = local.prev[lead] = np.zeros(
                lead + (3, self.n_words), dtype=np.uint64
            )
        return prev, local.lanes

    def stash_prev(self, planes: np.ndarray) -> None:
        """Record the settled pre-step planes (activity's *previous*)."""
        np.copyto(self._scratch(planes.shape[:-2])[0], planes)

    def settle_and_mark(self, planes: np.ndarray) -> None:
        """Settle all levels and write the A plane of every real net, in
        place; pads are left as they are.

        :meth:`stash_prev` must have captured the planes at the end of
        the previous cycle (before the DFF/input updates of this one).
        """
        if planes.dtype != np.uint64 or planes.shape[-2:] != (3, self.n_words):
            raise ValueError(
                f"expected (..., 3, {self.n_words}) uint64 planes, got "
                f"{planes.shape} {planes.dtype}"
            )
        prev, lanes = self._scratch(planes.shape[:-2])
        contiguous = planes.flags["C_CONTIGUOUS"]
        state = planes if contiguous else np.ascontiguousarray(planes)
        self.kernel.settle(
            self.lanes.ptr, state.ctypes.data, prev.ctypes.data,
            prev.size // (3 * self.n_words), lanes.ctypes.data,
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


def evaluator_or_fallback(
    netlist: Netlist,
    reference=None,
    schedule: tuple[NetlistProgram, LaneTables] | None = None,
):
    """A :class:`NativeEvaluator`, or the reference engine when the
    kernels cannot be built or loaded.

    *reference* returns the :class:`LevelizedEvaluator` to fall back on
    (default: a new one).  *schedule* is the netlist's prebuilt
    ``(NetlistProgram, LaneTables)`` pair, which the evaluator adopts
    as it is; without one the schedule compiles here while the compiler
    runs, so a cold build overlaps it.  A prebuilt schedule changes
    nothing else: the kernel is still built or loaded here, and without
    it the fallback and its one warning are the same.  Never raises for
    missing toolchains — the paper pipeline must run anywhere.
    """
    start_build()
    program, lanes = schedule or (NetlistProgram(netlist), None)
    try:
        return NativeEvaluator(netlist, program, lanes=lanes)
    except NativeKernelError as exc:
        warn_fallback(exc)
        return reference() if reference else LevelizedEvaluator(netlist)

"""Bit-plane executor for the fused level schedule.

:class:`BitplaneEvaluator` is the packed counterpart of
:class:`~repro.sim.evaluator.LevelizedEvaluator`.  State is a
``(..., 3, n_words)`` uint64 array — the dual-rail ``P``/``N`` value
planes plus the ``A`` activity plane (see :mod:`repro.netlist.program`
for the encoding and the compile step).  One simulation cycle is:

1. ``stash_prev``: snapshot the settled planes (the *previous* values of
   the activity rule) into a persistent scratch buffer,
2. the machine updates the source block (DFF load, forced inputs) with
   word stores and masked read-modify-writes,
3. ``settle_and_mark``: one fused sweep over the compiled levels that
   evaluates the combinational logic **and** applies the paper's
   activity-marking rule in the same pass — per level: one fancy-indexed
   byte gather + ``packbits`` fetches every input bit of every gate (both
   rails) and every input's activity bit, then a fixed handful of
   word-wide ``&``/``|``/``^`` ops computes the outputs, the changed/X
   flags, and the activity word for the whole level.

Everything is dimension-agnostic: a ``(3, n_words)`` state (one machine)
or a ``(B, 3, n_words)`` batch evaluates through the same code; scratch
buffers and the per-level views into them are cached per thread and
leading shape, so the steady-state cost is the ufunc dispatches
themselves and threads exploring on one CPU never share a buffer.

Bit identity with the reference engine is a hard contract: for every
input state, unpacking after ``settle_and_mark`` must equal
``LevelizedEvaluator.eval_comb`` + ``compute_activity`` exactly — the
differential suite enforces this per gate (exhaustively over the 3-valued
domain) and per benchmark (whole execution trees).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.netlist.core import Netlist
from repro.netlist.program import A_PLANE, N_PLANE, P_PLANE, NetlistProgram

_ONE = np.uint64(1)

#: the simulation engines; ``native`` (the default) is the compiled C
#: settle kernel, ``bitplane`` the numpy one it falls back to without a C
#: compiler, ``reference`` the original uint8 LevelizedEvaluator
#: retained as the oracle
ENGINES = ("bitplane", "native", "reference")

#: engine used when nothing is specified; override with ``REPRO_ENGINE``
DEFAULT_ENGINE = "native"


def default_engine() -> str:
    """The engine selected by the ``REPRO_ENGINE`` environment variable."""
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if not raw:
        return DEFAULT_ENGINE
    if raw not in ENGINES:
        raise ValueError(
            f"REPRO_ENGINE must be one of {ENGINES}, got {raw!r}"
        )
    return raw


def make_evaluator(netlist: Netlist, engine: str | None = None):
    """Build the evaluator for *engine* (``None``: honor ``REPRO_ENGINE``)."""
    from repro.sim.evaluator import LevelizedEvaluator

    engine = engine or default_engine()
    if engine == "reference":
        return LevelizedEvaluator(netlist)
    if engine == "bitplane":
        return BitplaneEvaluator(netlist)
    if engine == "native":
        from repro.sim.native import evaluator_or_fallback

        return evaluator_or_fallback(netlist)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


#: popcount LUT fallback for numpy < 2.0 (no ``np.bitwise_count``)
_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def _bitwise_count(words: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    per_byte = _POPCOUNT8[as_bytes].reshape(words.shape + (8,))
    return per_byte.sum(axis=-1, dtype=np.uint64)


def popcount(words: np.ndarray, axis: int | None = -1) -> np.ndarray:
    """Per-row population count of uint64 mask words."""
    counts = _bitwise_count(words)
    return counts.sum(axis=axis) if axis is not None else counts


class _LeadBuffers:
    """Per-leading-shape scratch, compiled into flat instruction tapes.

    Every word-wide boolean op of the fused sweep is pre-assembled as a
    ``(ufunc, a, b, out)`` tuple over *cached views* of the persistent
    scratch buffers, so the per-cycle inner loop is a uniform
    positional-argument dispatch with no slicing, dict lookups, or
    keyword parsing — the Python-side cost per op is one tuple unpack and
    one ufunc call.
    """

    def __init__(self, program: NetlistProgram, lead: tuple[int, ...]):
        self.lead = lead
        n_temp = max(
            program.max_level_words,
            2 * program.max_run_words,  # mux double-width product temp
            program.src_words,
            program.dff_words,
            1,
        )
        self.scratch = np.zeros(
            lead + (max(program.max_scratch_words, 1),), dtype=np.uint64
        )
        self.scratch8 = self.scratch.view(np.uint8)
        self.res = np.zeros(
            lead + (2, max(program.max_level_words, 1)), dtype=np.uint64
        )
        self.t1 = np.zeros(lead + (n_temp,), dtype=np.uint64)
        self.t2 = np.zeros_like(self.t1)
        self.tpn = np.zeros(
            lead + (2, max(program.max_level_words, 1)), dtype=np.uint64
        )
        self.prev = np.zeros(lead + (3, program.n_words), dtype=np.uint64)
        self.prev8 = self.prev.reshape(lead + (3 * program.n_words,)).view(
            np.uint8
        )

        band, bor, bxor = np.bitwise_and, np.bitwise_or, np.bitwise_xor
        S, t1, t2 = self.scratch, self.t1, self.t2

        #: per level: (gather_bytes, gather_masks, gather_buf, scratch8_dst,
        #:             tape, res_pn_view, word0, word1)
        self.levels = []
        for plan in program.levels:
            wl = plan.words
            tape = []
            for run in plan.runs:
                ops = tuple(
                    S[..., off : off + run.words] for off in run.slot_words
                )
                rp = self.res[..., 0, run.res_word : run.res_word + run.words]
                rn = self.res[..., 1, run.res_word : run.res_word + run.words]
                tr1 = t1[..., : run.words]
                tr2 = t2[..., : run.words]
                if run.cls == "copy":
                    # BUF/NOT: the gather already selected the source
                    # rails (inversion folded in); OR-with-self moves them
                    tape.append((bor, ops[0], ops[0], rp))
                    tape.append((bor, ops[1], ops[1], rn))
                elif run.cls == "and":
                    tape.append((band, ops[0], ops[2], rp))
                    tape.append((bor, ops[1], ops[3], rn))
                elif run.cls == "and_swap":
                    tape.append((bor, ops[1], ops[3], rp))
                    tape.append((band, ops[0], ops[2], rn))
                elif run.cls == "mux":
                    # blocks SN,SP,PA,PB,NA,NB are laid out adjacently, so
                    # one double-width AND forms both select products of a
                    # rail; an OR of its halves blends them
                    w = run.words
                    sel2 = S[..., run.slot_words[0] : run.slot_words[0] + 2 * w]
                    p2 = S[..., run.slot_words[2] : run.slot_words[2] + 2 * w]
                    n2 = S[..., run.slot_words[4] : run.slot_words[4] + 2 * w]
                    td = t1[..., : 2 * w]
                    tape.append((band, sel2, p2, td))
                    tape.append((bor, td[..., :w], td[..., w:], rp))
                    tape.append((band, sel2, n2, td))
                    tape.append((bor, td[..., :w], td[..., w:], rn))
                else:  # xor / xor_swap
                    pa, na, pb, nb = ops
                    out_p, out_n = (rn, rp) if run.cls == "xor_swap" else (rp, rn)
                    tape.append((band, pa, nb, tr1))
                    tape.append((band, na, pb, tr2))
                    tape.append((bor, tr1, tr2, out_p))
                    tape.append((band, pa, pb, tr1))
                    tape.append((band, na, nb, tr2))
                    tape.append((bor, tr1, tr2, out_n))

            # activity: t1 = changed, t2 = is_x & driven; the runtime then
            # ORs them straight into the A plane's level window.  The
            # changed XOR runs over both rails at once (the res block and
            # the prev planes expose matching (2, words) windows).
            res_p = self.res[..., 0, :wl]
            res_n = self.res[..., 1, :wl]
            res_pn = self.res[..., :, :wl]
            prev_pn = self.prev[..., 0:2, plan.word0 : plan.word0 + wl]
            tpn = self.tpn[..., :, :wl]
            lt1 = t1[..., :wl]
            lt2 = t2[..., :wl]
            act0 = S[..., plan.act0_word : plan.act0_word + wl]
            act1 = S[..., plan.act1_word : plan.act1_word + wl]
            act_tape = [
                (bxor, res_pn, prev_pn, tpn),
                (bor, tpn[..., 0, :], tpn[..., 1, :], lt1),
                (band, res_p, res_n, lt2),
                (bor, act0, act1, act0),
            ]
            if plan.act2_word is not None:
                act2 = S[
                    ..., plan.act2_word : plan.act2_word + plan.mux_words
                ]
                drv2 = act0[..., wl - plan.mux_words :]
                act_tape.append((bor, drv2, act2, drv2))
            act_tape.append((band, lt2, act0, lt2))
            tape.extend(act_tape)

            self.levels.append(
                (
                    plan.gather_bytes,
                    plan.gather_masks,
                    np.zeros(lead + (plan.scratch_words * 64,), dtype=np.uint8),
                    self.scratch8[..., : plan.scratch_words * 8],
                    tuple(tape),
                    self.res[..., :, :wl],
                    plan.word0,
                    plan.word0 + wl,
                    lt1,
                    lt2,
                )
            )
        sw = program.src_words
        self.src_t1 = self.t1[..., :sw]
        self.src_t2 = self.t2[..., :sw]
        self.src_t3 = np.zeros(lead + (sw,), dtype=np.uint64)
        d0 = program.dff_word0
        d1 = d0 + program.dff_words
        self.src_t2_dff = self.t2[..., d0:d1]
        self.src_t1_dff = self.t1[..., d0:d1]


class BitplaneEvaluator:
    """Executes the compiled fused schedule on packed bit planes."""

    #: machines dispatch on this to pick the packed state representation
    packed = True

    def __init__(self, netlist: Netlist, program: NetlistProgram | None = None):
        self.netlist = netlist
        self.program = program or NetlistProgram(netlist)
        prog = self.program
        self.n_nets = netlist.n_nets
        self.n_words = prog.n_words
        self.depth = prog.depth
        # Reference-compatible index arrays (sim.machine and the explorers
        # use these regardless of engine).
        self.dff_out = prog.dff_out
        self.dff_d = prog.dff_d
        self.dff_reset = prog.dff_reset
        self.input_nets = prog.input_nets
        self.const0_nets = prog.const0_nets
        self.const1_nets = prog.const1_nets

        # fresh-state plane templates: every real net X, constants tied,
        # pads and the zero bit a known 0
        fresh_p = prog.valid_mask.copy()
        fresh_n = np.full(prog.n_words, ~np.uint64(0), dtype=np.uint64)
        for pos in prog.const0_positions:
            fresh_p[pos >> 6] &= ~(_ONE << np.uint64(pos & 63))
        for pos in prog.const1_positions:
            fresh_n[pos >> 6] &= ~(_ONE << np.uint64(pos & 63))
        self._fresh_p = fresh_p
        self._fresh_n = fresh_n

        self._local = threading.local()

    # ------------------------------------------------------------------
    # State construction and conversion
    # ------------------------------------------------------------------
    def fresh_planes(self, batch: int | None = None) -> np.ndarray:
        """All-X packed state with constants tied (cf. ``fresh_values``)."""
        lead = () if batch is None else (batch,)
        planes = np.zeros(lead + (3, self.n_words), dtype=np.uint64)
        planes[..., P_PLANE, :] = self._fresh_p
        planes[..., N_PLANE, :] = self._fresh_n
        return planes

    def fresh_values(self, batch: int | None = None) -> np.ndarray:
        """Reference-compatible uint8 fresh state (unpacked)."""
        return self.unpack_values(self.fresh_planes(batch))

    def pack_state(
        self, values: np.ndarray, active: np.ndarray | None = None
    ) -> np.ndarray:
        """uint8 values (+ optional bool activity) -> packed planes."""
        lead = values.shape[:-1]
        planes = np.zeros(lead + (3, self.n_words), dtype=np.uint64)
        planes[..., 0:2, :] = self.program.pack_values(values)
        if active is not None:
            planes[..., A_PLANE, :] = self.program.pack_active(active)
        return planes

    def unpack_values(self, planes: np.ndarray) -> np.ndarray:
        return self.program.unpack_trits(
            planes[..., P_PLANE, :], planes[..., N_PLANE, :]
        )

    def unpack_active(self, planes: np.ndarray) -> np.ndarray:
        return self.program.unpack_bits(planes[..., A_PLANE, :])

    def active_words(self, planes: np.ndarray) -> np.ndarray:
        """The packed activity row(s), masked to real nets."""
        return planes[..., A_PLANE, :] & self.program.valid_mask

    def count_active(self, planes: np.ndarray) -> np.ndarray:
        """Per-row number of active nets, straight from the A plane."""
        return popcount(self.active_words(planes))

    def state_bytes(self, planes: np.ndarray) -> bytes:
        """Architectural-state fingerprint bytes (the DFF value words)."""
        prog = self.program
        d0 = prog.dff_word0
        return planes[..., 0:2, d0 : d0 + prog.dff_words].tobytes()

    # ------------------------------------------------------------------
    # DFF clocking
    # ------------------------------------------------------------------
    def next_dff_planes(self, planes: np.ndarray, reset: bool) -> np.ndarray:
        """The packed ``(…, 2, dff_words)`` values every DFF will load."""
        prog = self.program
        lead = planes.shape[:-2]
        if reset:
            return np.broadcast_to(
                prog.dff_reset_words, lead + prog.dff_reset_words.shape
            ).copy()
        raw8 = planes.reshape(lead + (3 * self.n_words,)).view(np.uint8)
        g = raw8.take(prog.dff_gather_bytes, -1)
        np.bitwise_and(g, prog.dff_gather_masks, out=g)
        packed = np.packbits(g, axis=-1, bitorder="little").view(np.uint64)
        return packed.reshape(lead + (2, prog.dff_words))

    def force_dff_bits(
        self, dff_planes: np.ndarray, forces: dict[int, int]
    ) -> None:
        """Apply one-shot DFF load overrides to a ``(2, dff_words)`` row."""
        for net, value in forces.items():
            j = self.program.dff_bit_of[int(net)]
            word, mask = j >> 6, _ONE << np.uint64(j & 63)
            if value:
                dff_planes[P_PLANE, word] |= mask
                dff_planes[N_PLANE, word] &= ~mask
            else:
                dff_planes[P_PLANE, word] &= ~mask
                dff_planes[N_PLANE, word] |= mask

    def set_dff_planes(self, planes: np.ndarray, dff_planes: np.ndarray) -> None:
        prog = self.program
        d0 = prog.dff_word0
        planes[..., 0:2, d0 : d0 + prog.dff_words] = dff_planes

    def write_trit(self, planes: np.ndarray, net: int, value: int) -> None:
        """Force one net (0/1/X) in place — the forced-inputs primitive."""
        pos = int(self.program.pos_of[net])
        word, mask = pos >> 6, _ONE << np.uint64(pos & 63)
        if value == 0:
            planes[..., P_PLANE, word] &= ~mask
            planes[..., N_PLANE, word] |= mask
        elif value == 1:
            planes[..., P_PLANE, word] |= mask
            planes[..., N_PLANE, word] &= ~mask
        else:
            planes[..., P_PLANE, word] |= mask
            planes[..., N_PLANE, word] |= mask

    # ------------------------------------------------------------------
    # The fused settle + activity sweep
    # ------------------------------------------------------------------
    def _thread_scratch(self) -> dict:
        """This thread's per-lead scratch buffers."""
        try:
            return self._local.scratch
        except AttributeError:
            scratch = self._local.scratch = {}
            return scratch

    def _lead_bufs(self, lead: tuple[int, ...]) -> _LeadBuffers:
        scratch = self._thread_scratch()
        bufs = scratch.get(lead)
        if bufs is None:
            bufs = scratch[lead] = _LeadBuffers(self.program, lead)
        return bufs

    def stash_prev(self, planes: np.ndarray) -> None:
        """Record the settled pre-step planes (activity's *previous*)."""
        np.copyto(self._lead_bufs(planes.shape[:-2]).prev, planes)

    def settle_and_mark(self, planes: np.ndarray) -> None:
        """Settle all levels and write the A plane, in place.

        ``stash_prev`` must have captured the planes at the end of the
        previous cycle (before the DFF/input updates of this one).
        """
        prog = self.program
        lead = planes.shape[:-2]
        bufs = self._lead_bufs(lead)
        raw8 = planes.reshape(lead + (3 * self.n_words,)).view(np.uint8)
        plane_p = planes[..., P_PLANE, :]
        plane_n = planes[..., N_PLANE, :]
        plane_a = planes[..., A_PLANE, :]
        plane_pn = planes[..., 0:2, :]

        # --- source block: changed | input rule | DFF rule ---
        sw = prog.src_words
        t1, t2, t3 = bufs.src_t1, bufs.src_t2, bufs.src_t3
        np.bitwise_xor(plane_p[..., :sw], bufs.prev[..., P_PLANE, :sw], t1)
        np.bitwise_xor(plane_n[..., :sw], bufs.prev[..., N_PLANE, :sw], t2)
        np.bitwise_or(t1, t2, t1)  # changed
        np.bitwise_and(plane_p[..., :sw], plane_n[..., :sw], t2)  # is_x
        np.bitwise_and(t2, prog.input_mask, t3)
        np.bitwise_or(t1, t3, t1)  # inputs: active when changed or X
        if prog.dff_words:
            g = bufs.prev8.take(prog.dff_act_bytes, -1)
            np.bitwise_and(g, prog.dff_act_masks, g)
            driven = np.packbits(g, axis=-1, bitorder="little").view(np.uint64)
            np.bitwise_and(bufs.src_t2_dff, driven, driven)
            np.bitwise_or(bufs.src_t1_dff, driven, bufs.src_t1_dff)
        plane_a[..., :sw] = t1

        # --- fused level sweep over the compiled instruction tapes ---
        band, bor = np.bitwise_and, np.bitwise_or
        packbits = np.packbits
        copyto = np.copyto
        for gb, gm, gbuf, s8dst, tape, res_pn, w0, w1, lt1, lt2 in bufs.levels:
            raw8.take(gb, -1, gbuf)
            band(gbuf, gm, gbuf)
            copyto(s8dst, packbits(gbuf, axis=-1, bitorder="little"))
            for op, a, b, out in tape:
                op(a, b, out)
            plane_pn[..., w0:w1] = res_pn
            bor(lt1, lt2, plane_a[..., w0:w1])

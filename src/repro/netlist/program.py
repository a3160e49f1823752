"""Compile a levelized netlist into a fused bit-plane schedule.

The packed state format (:mod:`repro.sim.bitplane`) stores the 3-valued
simulation state as **dual-rail uint64 bit planes**: for every net, a
``P`` bit ("the net can be 1") and an ``N`` bit ("the net can be 0"),

    0 -> (P=0, N=1)    1 -> (P=1, N=0)    X -> (P=1, N=1)

plus an ``A`` plane holding the paper's per-net activity flag.  Under this
encoding the Kleene gate functions become plain word-wide boolean algebra:

    AND:  p = pa & pb            OR:   p = pa | pb
          n = na | nb                  n = na & nb
    NOT:  swap the rails (a compile-time wire crossing, zero runtime ops)
    XOR:  p = (pa & nb) | (na & pb),  n = (pa & pb) | (na & nb)
    MUX:  p = (ns & pa) | (ps & pb),  n = (ns & na) | (ps & nb)

so one ``&``/``|`` processes 64 nets at a time, and every inverting gate
(NAND/NOR/NOT, and OR via De Morgan) costs nothing: its inversions fold
into *which rail* each input slot reads and *which rail* the result is
stored to.

This module is the compile step.  It renumbers the nets into a **packed
bit order** — sources first, then each level's gates grouped into
word-aligned opcode runs — and precomputes, per level, one fused gather
table (byte indices + bit masks into the raw plane bytes) that fetches
every input bit of every gate of the level, for both rails *and* for the
activity sweep.  The native kernels (:mod:`repro.sim.native`) execute
these tables: ``repro_settle`` walks them row by row, and the
lane-sliced batch step decodes them into per-gate references.

Bit position 0 is a reserved constant-zero bit (P=0, N=1, A=0 always);
all padding slots point at it so the pad bits of every run settle to a
deterministic known 0 and never contribute activity.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.netlist.core import Netlist

#: plane indices within the ``(..., 3, n_words)`` state array
P_PLANE, N_PLANE, A_PLANE = 0, 1, 2

#: opcode-run classes, in their fixed within-level layout order.  ``copy``
#: moves one gathered rail pair straight to the output rails (BUF/NOT:
#: the inversion folds into which rails the two slots read); ``and``
#: computes ``p = pa & pb, n = na | nb``; ``and_swap`` the same with the
#: result rails exchanged (the free output inversion); ``xor``/``xor_swap``
#: the Kleene XOR and its complement; ``mux`` the optimistic-X 2:1 mux.
#: ``mux`` must stay last: the activity sweep addresses the select-line
#: block by the level tail.
RUN_ORDER = ("copy", "and", "and_swap", "xor", "xor_swap", "mux")

#: gate kind -> (run class, invert input rails?)
KIND_CLASS = {
    "AND": ("and", False),
    "BUF": ("copy", False),
    "NOR": ("and", True),  # AND(~a, ~b)
    "OR": ("and_swap", True),  # ~AND(~a, ~b)
    "NOT": ("copy", True),  # rail swap
    "NAND": ("and_swap", False),  # ~AND(a, b)
    "XOR": ("xor", False),
    "XNOR": ("xor_swap", False),
    "MUX": ("mux", False),
}

#: kinds whose output is a (possibly inverted) copy of their single input;
#: reads *through* them are retargeted at their chain root
_CHAIN_KINDS = ("BUF", "NOT")


def _pad64(bits: int) -> int:
    return -(-bits // 64) * 64


@dataclass
class Run:
    """One word-aligned opcode run inside a level."""

    cls: str
    n_gates: int
    #: word offset of the run's outputs inside the level's result block
    res_word: int
    words: int
    #: word offsets of the run's input blocks inside the level scratch
    #: (``and*``/``xor*``: PA, NA, PB, NB; ``mux``: SN, SP, PA, PB, NA, NB)
    slot_words: tuple[int, ...] = ()


@dataclass
class LevelPlan:
    """Everything the executor needs for one level of the schedule."""

    #: output word range [word0, word0 + words) in each plane
    word0: int
    words: int
    runs: list[Run] = field(default_factory=list)
    #: fused gather table: byte index into the raw (3 * n_words * 8)-byte
    #: state row + the bit to test, one entry per scratch slot
    gather_bytes: np.ndarray | None = None
    gather_masks: np.ndarray | None = None
    scratch_words: int = 0
    #: word offsets of the two activity-input blocks (each ``words`` wide)
    act0_word: int = 0
    act1_word: int = 0
    #: mux third-input activity block (``mux_words`` wide) or None
    act2_word: int | None = None
    mux_words: int = 0


class BitOrder:
    """Where each net's bit sits in a packed uint64 row.

    The conversions between net-order rows (uint8 trits, bool flags) and
    packed words.  A subclass sets ``n_nets`` and calls :meth:`_place`.
    Bits that hold no net are pads: they pack as a known 0 (P=0, N=1)
    and never as active, and unpacking drops them.
    """

    n_nets: int

    def _place(self, pos_of: np.ndarray, n_bits: int) -> None:
        self.n_bits = n_bits
        self.n_words = n_bits // 64
        self.pos_of = pos_of
        self._byte_of = pos_of >> 3
        self._shift_of = (pos_of & 7).astype(np.uint8)
        #: uint64 mask words with 1s at real-net bit positions (pads and
        #: the zero bit excluded) — for popcounts over whole planes
        valid = np.zeros(n_bits, dtype=np.uint8)
        valid[pos_of] = 1
        self.valid_mask = np.packbits(valid, bitorder="little").view(np.uint64)

    def pack_values(self, values: np.ndarray) -> np.ndarray:
        """uint8 trit rows -> (..., 2, n_words) P/N planes."""
        lead = values.shape[:-1]
        trits = np.zeros(lead + (self.n_bits,), dtype=np.uint8)
        trits[..., self.pos_of] = values
        p = np.packbits(trits != 0, axis=-1, bitorder="little")
        n = np.packbits(trits != 1, axis=-1, bitorder="little")
        planes = np.stack([p.view(np.uint64), n.view(np.uint64)], axis=-2)
        # pads (and the zero bit) must read as known 0: P=0, N=1
        pad_n = ~self.valid_mask
        planes[..., N_PLANE, :] |= pad_n
        planes[..., P_PLANE, :] &= self.valid_mask
        return planes

    def pack_active(self, active: np.ndarray) -> np.ndarray:
        """bool activity rows -> (..., n_words) A-plane words."""
        lead = active.shape[:-1]
        bits = np.zeros(lead + (self.n_bits,), dtype=np.uint8)
        bits[..., self.pos_of] = active
        return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

    @functools.cached_property
    def live_bytes(self) -> "LiveBytes":
        """This order with its all-pad bytes dropped (built once)."""
        return LiveBytes(self)

    def _net_bits(self, words: np.ndarray) -> np.ndarray:
        """Word rows -> uint8 0/1 rows in net order: one byte gather per
        net, then a shift, so pad bits are never expanded."""
        raw = np.ascontiguousarray(words).view(np.uint8)
        bits = np.take(raw, self._byte_of, axis=-1)
        bits >>= self._shift_of
        bits &= 1
        return bits

    def unpack_trits(self, p_words: np.ndarray, n_words: np.ndarray) -> np.ndarray:
        """P/N word rows -> uint8 trit rows in netlist net order."""
        trits = self._net_bits(p_words)
        trits += trits & self._net_bits(n_words)  # (0,1)->0, (1,0)->1, (1,1)->2
        return trits

    def unpack_bits(self, words: np.ndarray) -> np.ndarray:
        """A-plane (or any mask) word rows -> bool rows in net order."""
        return self._net_bits(words).view(bool)


class LiveBytes(BitOrder):
    """*source*'s bit order with every byte that holds no net dropped.

    The simulator's order pads each opcode run to whole words — about
    three quarters of the ULP430's bits are pads — so whole-trace word
    analyses (Algorithm 2) gather the live bytes once with
    :meth:`compact` and run on words a third as wide.  Bytes keep their
    order and their bits; the tail is filled with pad bytes.
    """

    def __init__(self, source: BitOrder):
        self.n_nets = source.n_nets
        live = source.valid_mask.view(np.uint8) != 0
        keep = np.flatnonzero(live)
        rank = np.searchsorted(keep, source.pos_of >> 3)
        fill = np.flatnonzero(~live)[: -len(keep) % 8]
        self.keep = np.concatenate([keep, fill])
        self._place(rank * 8 + (source.pos_of & 7), len(self.keep) * 8)

    def compact(self, words: np.ndarray) -> np.ndarray:
        """``(..., n_words)`` rows in the source order -> this order."""
        raw = np.ascontiguousarray(words).view(np.uint8)
        return np.take(raw, self.keep, axis=-1).view(np.uint64)


class NetOrder(BitOrder):
    """The plain packing: net *i* at bit *i*, pads after the last net.

    Traces recorded unpacked (the reference engine, hand-built traces)
    pack in this order, so word-level analyses serve every trace.
    """

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self._place(np.arange(n_nets, dtype=np.int64), _pad64(max(n_nets, 1)))


@functools.cache
def net_order(n_nets: int) -> NetOrder:
    """The shared :class:`NetOrder` for *n_nets* nets."""
    return NetOrder(n_nets)


class NetlistProgram(BitOrder):
    """A netlist compiled into packed bit positions + a fused schedule.

    One program instance is immutable and shared by every
    :class:`~repro.sim.native.NativeEvaluator` (and hence every machine)
    built for the same netlist.
    """

    def __init__(self, netlist: Netlist):
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
            raise RuntimeError("packed bit planes require a little-endian host")
        self.netlist = netlist
        self.n_nets = netlist.n_nets
        levels = netlist.levelize()
        self.depth = len(levels)

        # ------------------------------------------------------------------
        # BUF/NOT chain collapse.  A chain element's settled planes are an
        # exact rail permutation of its chain root's (BUF keeps, NOT swaps),
        # and its activity flag equals the root's (A(elem) = changed(elem)
        # | (is_x(elem) & A(src)); changed/is_x are rail-swap invariant and
        # A(src) already contains changed(src), so the recurrence telescopes
        # to A(root)).  Every *read* of a chain element — gate inputs, mux
        # selects, DFF D pins, activity slots — therefore retargets at the
        # root with a parity-selected rail, shortening the gather's
        # dependency chains; the elements themselves still settle (traces
        # expose every net) but shrink to two-slot ``copy`` runs.
        # ------------------------------------------------------------------
        self.chain_of: dict[int, tuple[int, int]] = {}
        for gate in netlist.gates:
            if gate.kind in _CHAIN_KINDS:
                self._resolve_chain(gate.index)

        # ------------------------------------------------------------------
        # Packed bit positions: [zero bit | inputs | consts | pad | DFFs |
        # pad] then per level one word-aligned block per opcode run.
        # ------------------------------------------------------------------
        pos_of = np.full(self.n_nets, -1, dtype=np.int64)
        cursor = 1  # bit 0 is the reserved constant-zero bit
        self.input_positions: list[int] = []
        for gate in netlist.gates:
            if gate.kind == "INPUT":
                pos_of[gate.index] = cursor
                self.input_positions.append(cursor)
                cursor += 1
        const0 = [g.index for g in netlist.gates if g.kind == "CONST0"]
        const1 = [g.index for g in netlist.gates if g.kind == "CONST1"]
        self.const0_positions: list[int] = []
        self.const1_positions: list[int] = []
        for index in const0:
            pos_of[index] = cursor
            self.const0_positions.append(cursor)
            cursor += 1
        for index in const1:
            pos_of[index] = cursor
            self.const1_positions.append(cursor)
            cursor += 1
        cursor = _pad64(cursor)

        self.dff_word0 = cursor // 64
        dffs = netlist.dff_indices()
        for index in dffs:
            pos_of[index] = cursor
            cursor += 1
        cursor = _pad64(cursor)
        self.dff_words = cursor // 64 - self.dff_word0
        self.src_words = cursor // 64

        #: per-level run membership, gates in netlist-index order
        level_runs: list[dict[str, list[int]]] = []
        for level_gates in levels:
            by_cls: dict[str, list[int]] = {}
            for index in sorted(level_gates):
                cls, _inv = KIND_CLASS[netlist.gates[index].kind]
                by_cls.setdefault(cls, []).append(index)
            level_runs.append(by_cls)

        self.levels: list[LevelPlan] = []
        for by_cls in level_runs:
            word0 = cursor // 64
            plan = LevelPlan(word0=word0, words=0)
            for cls in RUN_ORDER:
                gates = by_cls.get(cls)
                if not gates:
                    continue
                run = Run(
                    cls=cls,
                    n_gates=len(gates),
                    res_word=cursor // 64 - word0,
                    words=_pad64(len(gates)) // 64,
                )
                for slot, index in enumerate(gates):
                    pos_of[index] = cursor + slot
                cursor += run.words * 64
                plan.runs.append(run)
                if cls == "mux":
                    plan.mux_words = run.words
            plan.words = cursor // 64 - word0
            self.levels.append(plan)

        assert (pos_of >= 0).all(), "every net must receive a bit position"
        self._place(pos_of, cursor)

        #: INPUT-positions mask over the source words (the paper's
        #: "external inputs are active whenever X" rule)
        in_bits = np.zeros(self.src_words * 64, dtype=np.uint8)
        in_bits[self.input_positions] = 1
        self.input_mask = np.packbits(in_bits, bitorder="little").view(np.uint64)

        # ------------------------------------------------------------------
        # Per-level fused gather tables
        # ------------------------------------------------------------------
        for plan, by_cls in zip(self.levels, level_runs):
            self._build_level_gather(plan, by_cls)

        # ------------------------------------------------------------------
        # DFF schedule: next-value gather (P and N of every D input) and
        # previous-activity gather (A of every D input), plus reset words.
        # ------------------------------------------------------------------
        self.dff_out = np.array(dffs, dtype=np.int64)
        self.dff_d = np.array(
            [netlist.gates[i].inputs[0] for i in dffs], dtype=np.int64
        )
        self.dff_reset = np.array(
            [netlist.gates[i].reset_value for i in dffs], dtype=np.uint8
        )
        self.dff_bit_of = {
            int(net): pos for pos, net in enumerate(self.dff_out)
        }
        # Both DFF gathers read the *raw* D net, not its chain root: they
        # run against caller-supplied planes (next_dff_planes accepts any
        # packed state; the stored A plane may be any vector), so the
        # settled-chain identities that license retargeting within one
        # settle do not apply to them.
        d_slots: list[tuple[int, int]] = []  # (plane, bit position)
        for rail in (P_PLANE, N_PLANE):
            for j in range(self.dff_words * 64):
                if j < len(dffs):
                    d_slots.append((rail, pos_of[self.dff_d[j]]))
                else:  # pad: P(zero)=0, N(zero)=1 -> pad DFFs settle to 0
                    d_slots.append((rail, 0))
        self.dff_gather_bytes, self.dff_gather_masks = self._slot_table(d_slots)
        a_slots = [
            (A_PLANE, pos_of[self.dff_d[j]] if j < len(dffs) else 0)
            for j in range(self.dff_words * 64)
        ]
        self.dff_act_bytes, self.dff_act_masks = self._slot_table(a_slots)

        reset_bits = np.zeros((2, self.dff_words * 64), dtype=np.uint8)
        reset_bits[P_PLANE, : len(dffs)] = self.dff_reset
        reset_bits[N_PLANE, : len(dffs)] = 1 - self.dff_reset
        reset_bits[N_PLANE, len(dffs) :] = 1  # pads are known 0
        self.dff_reset_words = np.packbits(
            reset_bits, axis=-1, bitorder="little"
        ).view(np.uint64)

        #: compatibility index arrays (mirroring LevelizedEvaluator)
        self.input_nets = np.array(
            [g.index for g in netlist.gates if g.kind == "INPUT"], dtype=np.int64
        )
        self.const0_nets = np.array(const0, dtype=np.int64)
        self.const1_nets = np.array(const1, dtype=np.int64)

        self.max_scratch_words = max(
            (plan.scratch_words for plan in self.levels), default=0
        )

    # ------------------------------------------------------------------
    # Gather-table construction
    # ------------------------------------------------------------------
    def _slot_table(
        self, slots: list[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(byte index, bit mask) arrays for (plane, bit position) slots."""
        plane_bytes = self.n_words * 8
        bytes_ = np.array(
            [plane * plane_bytes + (pos >> 3) for plane, pos in slots],
            dtype=np.intp,
        )
        masks = np.array(
            [1 << (pos & 7) for _plane, pos in slots], dtype=np.uint8
        )
        return bytes_, masks

    def _resolve_chain(self, net: int) -> tuple[int, int]:
        """(chain root net, rail parity) for *net*, memoized.

        The root is the first driver up the BUF/NOT chain that is not
        itself a chain element; parity counts the NOTs passed (odd = the
        element's P rail lives on the root's N rail and vice versa).
        Non-chain nets are their own root with even parity.
        """
        path: list[int] = []
        while net not in self.chain_of:
            gate = self.netlist.gates[net]
            if gate.kind not in _CHAIN_KINDS:
                self.chain_of[net] = (net, 0)
                break
            path.append(net)
            net = gate.inputs[0]
        root, parity = self.chain_of[net]
        for elem in reversed(path):
            parity ^= int(self.netlist.gates[elem].kind == "NOT")
            self.chain_of[elem] = (root, parity)
        return self.chain_of[path[0] if path else net]

    def _read_rails(self, net: int) -> tuple[int, int, int]:
        """(P-rail plane, N-rail plane, bit position) to read *net* from,
        chain collapse applied."""
        root, parity = self.chain_of.get(net, (net, 0))
        if parity:
            return N_PLANE, P_PLANE, int(self.pos_of[root])
        return P_PLANE, N_PLANE, int(self.pos_of[root])

    def _gate_eval_slots(self, index: int) -> list[tuple[int, int]]:
        """Input slot sources for one gate, rail folding applied.

        Returns (plane, bit) pairs in the run's block order: SRC_P,
        SRC_N for ``copy``, PA, NA, PB, NB for the two-input classes,
        SP, SN, PA, NA, PB, NB for muxes.  The PA/NA names refer to the
        *operand rails the run's formula reads*; an inverting kind (or
        an odd chain parity on the way to the operand's root) simply
        wires them to the other rail.
        """
        gate = self.netlist.gates[index]
        _cls, invert_inputs = KIND_CLASS[gate.kind]
        ins = gate.inputs
        if gate.kind in _CHAIN_KINDS:
            sp, sn, pos = self._read_rails(ins[0])
            if invert_inputs:  # NOT: output = rail swap of the source
                sp, sn = sn, sp
            return [(sp, pos), (sn, pos)]
        if gate.kind == "MUX":
            # Block order SN, SP, PA, PB, NA, NB: the order the native
            # kernels' per-class product table (``native._PRODUCTS``)
            # reads them in.
            sel, a, b = ins
            sp, sn, s = self._read_rails(sel)
            pa_r, na_r, pa = self._read_rails(a)
            pb_r, nb_r, pb = self._read_rails(b)
            return [
                (sn, s), (sp, s),
                (pa_r, pa), (pb_r, pb),
                (na_r, pa), (nb_r, pb),
            ]
        a, b = ins
        pa_r, na_r, pa = self._read_rails(a)
        pb_r, nb_r, pb = self._read_rails(b)
        if invert_inputs:
            pa_r, na_r = na_r, pa_r
            pb_r, nb_r = nb_r, pb_r
        return [
            (pa_r, pa), (na_r, pa),
            (pb_r, pb), (nb_r, pb),
        ]

    #: pad slot sources per class, chosen so a pad output settles to a
    #: known 0 under the class's formula.  (P, 0) reads the zero bit's P
    #: rail (constant 0); (N, 0) reads its N rail (constant 1):
    #:
    #:   and:      p = 0 & 0 = 0, n = 1 | 1 = 1
    #:   and_swap: p = NA|NB = 0|0 = 0, n = PA&PB = 1&1 = 1
    #:   xor:      PA=1, NA=0, PB=1, NB=0 -> p = (1&0)|(0&1) = 0,
    #:             n = (1&1)|(0&0) = 1
    #:   xor_swap: PA=1, NA=0, PB=0, NB=1 -> p = (PA&PB)|(NA&NB) = 0,
    #:             n = (PA&NB)|(NA&PB) = 1
    #:   mux:      SN=1, SP=0, PA=0, NA=1 -> p = (1&0)|(0&PB) = 0,
    #:             n = (1&1)|(0&NB) = 1
    #:   copy:     p = P(zero) = 0, n = N(zero) = 1
    _PAD_SLOTS = {
        "copy": [(P_PLANE, 0), (N_PLANE, 0)],
        "and": [(P_PLANE, 0), (N_PLANE, 0), (P_PLANE, 0), (N_PLANE, 0)],
        "and_swap": [(N_PLANE, 0), (P_PLANE, 0), (N_PLANE, 0), (P_PLANE, 0)],
        "xor": [(N_PLANE, 0), (P_PLANE, 0), (N_PLANE, 0), (P_PLANE, 0)],
        "xor_swap": [(N_PLANE, 0), (P_PLANE, 0), (P_PLANE, 0), (N_PLANE, 0)],
        "mux": [  # SN, SP, PA, PB, NA, NB
            (N_PLANE, 0), (P_PLANE, 0),
            (P_PLANE, 0), (P_PLANE, 0),
            (N_PLANE, 0), (N_PLANE, 0),
        ],
    }

    def _build_level_gather(self, plan: LevelPlan, by_cls: dict) -> None:
        slots: list[tuple[int, int]] = []
        for run in plan.runs:
            gates = by_cls[run.cls]
            arity_blocks = {"mux": 6, "copy": 2}.get(run.cls, 4)
            per_gate = [self._gate_eval_slots(i) for i in gates]
            pad = self._PAD_SLOTS[run.cls]
            offsets = []
            for block in range(arity_blocks):
                offsets.append(len(slots) // 64)
                for j in range(run.words * 64):
                    slots.append(
                        per_gate[j][block] if j < run.n_gates else pad[block]
                    )
            run.slot_words = tuple(offsets)

        # Activity blocks: for every output bit of the level (run layout
        # order), the A bit of its first and second input; muxes add a
        # third block for the select line.  Pads read A(zero) = 0.
        out_gates: list[int | None] = []
        for run in plan.runs:
            gates = by_cls[run.cls]
            out_gates.extend(gates)
            out_gates.extend([None] * (run.words * 64 - run.n_gates))
        mux_gates = by_cls.get("mux", [])

        def act_slot(index: int | None, input_pos: int) -> tuple[int, int]:
            if index is None:
                return (A_PLANE, 0)
            inputs = self.netlist.gates[index].inputs
            net = inputs[min(input_pos, len(inputs) - 1)]
            root, _parity = self.chain_of.get(net, (net, 0))
            return (A_PLANE, self.pos_of[root])

        plan.act0_word = len(slots) // 64
        slots.extend(act_slot(i, 0) for i in out_gates)
        plan.act1_word = len(slots) // 64
        slots.extend(act_slot(i, 1) for i in out_gates)
        if mux_gates:
            plan.act2_word = len(slots) // 64
            mux_padded = plan.mux_words * 64
            slots.extend(
                act_slot(mux_gates[j] if j < len(mux_gates) else None, 2)
                for j in range(mux_padded)
            )
        plan.gather_bytes, plan.gather_masks = self._slot_table(slots)
        plan.scratch_words = len(slots) // 64

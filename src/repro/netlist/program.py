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
opcode runs packed back to back — and lists, per gate, the (plane, bit)
slots it reads: its operand rails, inversions folded in, and the
activity of its inputs (:meth:`NetlistProgram.gate_reads`).  The native
kernels (:mod:`repro.sim.native`) turn these into one lane-sliced gate
schedule that both the single-machine settle and the batch step run,
with a bit position as the lane slot.

Bit position 0 holds no net, and neither do the tails of the source
block, of the word-aligned DFF block and of the last word: these pads
pack as a known 0 (P=0, N=1, A=0) and unpack to nothing.  No gate reads
a pad and no settle writes one, so they stay a known 0 in every settled
state.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from repro.netlist.core import Netlist

#: plane indices within the ``(..., 3, n_words)`` state array
P_PLANE, N_PLANE, A_PLANE = 0, 1, 2

#: opcode-run classes, in their fixed within-level layout order.  ``copy``
#: moves one rail pair straight to the output rails (BUF/NOT: the
#: inversion folds into which rails the two slots read); ``and``
#: computes ``p = pa & pb, n = na | nb``; ``and_swap`` the same with the
#: result rails exchanged (the free output inversion); ``xor``/``xor_swap``
#: the Kleene XOR and its complement; ``mux`` the optimistic-X 2:1 mux.
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
    """One opcode run: gates of one level and class."""

    cls: str
    #: its gates (netlist indices), in bit order
    gates: list[int]


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

    def read_bus(
        self, planes: np.ndarray, nets: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """LSB-first bus *nets* (at most 64) of every ``(rows, >=2,
        n_words)`` plane row as ``(values, xmasks)`` uint64 columns: one
        bit gather per rail, read as ``read_bus`` reads a trit row."""
        pos = self.pos_of[nets]
        words, shift = pos >> 6, (pos & 63).astype(np.uint64)
        p = (planes[:, P_PLANE, words] >> shift) & np.uint64(1)
        q = (planes[:, N_PLANE, words] >> shift) & np.uint64(1)
        weights = np.uint64(1) << np.arange(len(nets), dtype=np.uint64)
        return (
            ((p & ~q) * weights).sum(axis=1, dtype=np.uint64),
            ((p & q) * weights).sum(axis=1, dtype=np.uint64),
        )


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
        # root with a parity-selected rail, shortening the schedule's
        # dependency chains; the elements themselves still settle (traces
        # expose every net) but shrink to two-slot ``copy`` runs.
        # ------------------------------------------------------------------
        self.chain_of: dict[int, tuple[int, int]] = {}
        for gate in netlist.gates:
            if gate.kind in _CHAIN_KINDS:
                self._resolve_chain(gate.index)

        # ------------------------------------------------------------------
        # Packed bit positions: [zero bit | inputs | consts | pad | DFFs |
        # pad] then per level one opcode run per class, back to back, and
        # a pad to the last whole word.  The DFF block is word-aligned:
        # state_bytes, next_dff_planes and set_dff_planes address it by
        # word.
        # ------------------------------------------------------------------
        pos_of = np.full(self.n_nets, -1, dtype=np.int64)
        cursor = 1  # bit 0 holds no net
        for gate in netlist.gates:
            if gate.kind == "INPUT":
                pos_of[gate.index] = cursor
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

        #: the opcode runs in settle order: per level, one per class in
        #: RUN_ORDER, gates in netlist-index order
        self.runs: list[Run] = []
        for level_gates in levels:
            by_cls: dict[str, list[int]] = {}
            for index in sorted(level_gates):
                cls, _inv = KIND_CLASS[netlist.gates[index].kind]
                by_cls.setdefault(cls, []).append(index)
            for cls in RUN_ORDER:
                gates = by_cls.get(cls)
                if gates:
                    self.runs.append(Run(cls, gates))
                    pos_of[gates] = cursor + np.arange(len(gates))
                    cursor += len(gates)

        assert (pos_of >= 0).all(), "every net must receive a bit position"
        self._place(pos_of, _pad64(cursor))

        # ------------------------------------------------------------------
        # DFF schedule: next-value gather (P and N of every D input) plus
        # reset words.
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
        # The DFF gather reads the *raw* D net, not its chain root: it runs
        # against caller-supplied planes (next_dff_planes accepts any
        # packed state), so the settled-chain identities that license
        # retargeting within one settle do not apply to it.
        # Pad DFFs read bit 0, a known 0 (P=0, N=1), so they load 0.
        d_pos = np.zeros(self.dff_words * 64, dtype=np.int64)
        d_pos[: len(dffs)] = pos_of[self.dff_d]
        plane_bytes = self.n_words * 8
        self.dff_gather_bytes = np.concatenate(
            [rail * plane_bytes + (d_pos >> 3) for rail in (P_PLANE, N_PLANE)]
        ).astype(np.intp)
        self.dff_gather_masks = np.tile(
            (1 << (d_pos & 7)).astype(np.uint8), 2
        )

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

    def gate_reads(self, index: int) -> list[tuple[int, int]]:
        """The (plane, bit position) slots one gate reads, rail folding
        and chain collapse applied.

        First its operand rails, in the order the batch step's formula
        for the run class reads them: SRC_P, SRC_N for ``copy``; PA, NA,
        PB, NB for the two-input classes; SN, SP, PA, PB, NA, NB for
        muxes.  The PA/NA names refer to the *operand rails the formula
        reads*; an inverting kind (or an odd chain parity on the way to
        the operand's root) simply wires them to the other rail.  Then
        the A slot of each input's chain root, in input order (a chain
        element's activity equals its root's).
        """
        gate = self.netlist.gates[index]
        _cls, invert_inputs = KIND_CLASS[gate.kind]
        ins = gate.inputs
        activity = [
            (A_PLANE, int(self.pos_of[self.chain_of.get(net, (net, 0))[0]]))
            for net in ins
        ]
        if gate.kind in _CHAIN_KINDS:
            sp, sn, pos = self._read_rails(ins[0])
            if invert_inputs:  # NOT: output = rail swap of the source
                sp, sn = sn, sp
            return [(sp, pos), (sn, pos)] + activity
        if gate.kind == "MUX":
            sel, a, b = ins
            sp, sn, s = self._read_rails(sel)
            pa_r, na_r, pa = self._read_rails(a)
            pb_r, nb_r, pb = self._read_rails(b)
            return [
                (sn, s), (sp, s),
                (pa_r, pa), (pb_r, pb),
                (na_r, pa), (nb_r, pb),
            ] + activity
        a, b = ins
        pa_r, na_r, pa = self._read_rails(a)
        pb_r, nb_r, pb = self._read_rails(b)
        if invert_inputs:
            pa_r, na_r = na_r, pa_r
            pb_r, nb_r = nb_r, pb_r
        return [
            (pa_r, pa), (na_r, pa),
            (pb_r, pb), (nb_r, pb),
        ] + activity

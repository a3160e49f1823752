"""The packed dual-rail state format, and engine selection.

:class:`BitplaneEvaluator` holds one machine state, or a batch of them,
as a ``(..., 3, n_words)`` uint64 array: the dual-rail ``P``/``N`` value
planes plus the ``A`` activity plane, in the packed bit order of a
:class:`~repro.netlist.program.NetlistProgram` (see that module for the
encoding and the bit order).  It owns everything about the format that
is not the settle: fresh all-X planes, packing from and unpacking to the
reference engine's uint8 rows, DFF clocking, forcing one net, and the
memo fingerprint (:meth:`~BitplaneEvaluator.state_bytes`).  Pads pack as
a known 0 and no settle writes them.

The settle itself — the combinational sweep and the paper's
activity-marking rule in one pass — is the native kernel's one gate
schedule: :class:`~repro.sim.native.NativeEvaluator` subclasses this
class and adds ``stash_prev``/``settle_and_mark``, which slice rows into
the lanes the batch step runs on and back.  Without a C compiler the
``native`` engine falls back to the uint8
:class:`~repro.sim.evaluator.LevelizedEvaluator`, the oracle, so the
format then goes unused.

Bit identity with the reference engine is a hard contract: for every
input state, unpacking after ``settle_and_mark`` must equal
``LevelizedEvaluator.eval_comb`` + ``compute_activity`` exactly — the
differential suite enforces this per gate (exhaustively over the 3-valued
domain) and per benchmark (whole execution trees).
"""

from __future__ import annotations

import numpy as np

from repro.netlist.core import Netlist
from repro.netlist.program import A_PLANE, N_PLANE, P_PLANE, NetlistProgram

_ONE = np.uint64(1)

#: the simulation engines: ``native`` (the default) is the compiled C
#: kernel on packed planes, ``reference`` the uint8 LevelizedEvaluator,
#: the oracle, which ``native`` falls back to without a C compiler
ENGINES = ("native", "reference")


def default_engine() -> str:
    """The engine used when none is named: always ``"native"``.

    The engine follows from the host, never from an option: ``native``
    falls back to the reference engine when its kernel cannot be built
    or loaded.  Only the oracle seam (tests, ``repro conformance``,
    ``repro bench``'s explore timing) names ``"reference"``.
    """
    return "native"


def make_evaluator(netlist: Netlist, engine: str | None = None):
    """Build the evaluator for *engine* (``None``: native, or the
    reference engine when the kernel cannot be built)."""
    from repro.sim.evaluator import LevelizedEvaluator

    engine = engine or default_engine()
    if engine == "reference":
        return LevelizedEvaluator(netlist)
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


class BitplaneEvaluator:
    """The packed dual-rail state of one netlist (no settle of its own)."""

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

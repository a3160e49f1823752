"""Cycle-by-cycle simulation records.

A :class:`Trace` is the bridge between simulation and power analysis: for
every simulated cycle it stores the settled net values (with Xs), the
activity flags from the paper's marking rule, and the behavioral memory
access energy.

Every record has one layout, whichever engine recorded it: dual-rail
``value_words`` (``(2, n_words)`` uint64 P/N planes) plus ``active_words``
(the A-plane words), in the bit order of the trace that holds it
(:attr:`Trace.bit_order`): the native evaluator's
:class:`~repro.netlist.program.NetlistProgram`, or plain net order
(:func:`~repro.netlist.program.net_order`) for the reference engine,
which packs its uint8 rows once per step.  ``values``/``active`` unpack
one record on access; ``values_matrix``/``active_matrix`` stack the
words of a whole trace and unpack them in one vectorized call, or hand
the words out as they are (``packed=True``), which is how Algorithm 2
(:mod:`repro.core.peakpower`) and the activity reductions read them.

The COI annotations of §3.5 (FSM state, PC, instruction word) are buses
of these settled values, so a trace stores none: the CPU decodes them
from the packed value matrix when something asks
(:meth:`repro.cpu.core.Ulp430.annotate`).
"""

from __future__ import annotations

import numpy as np

from repro.netlist.program import BitOrder, net_order


class CycleRecord:
    """Everything captured about one simulated clock cycle.

    ``value_words``/``active_words`` are packed in ``bit_order``;
    ``values``/``active`` unpack them on each access.
    """

    __slots__ = (
        "cycle", "value_words", "active_words", "mem_reads", "mem_writes",
        "bit_order",
    )

    def __init__(
        self,
        cycle: int,
        value_words: np.ndarray,
        active_words: np.ndarray,
        mem_reads: float,
        mem_writes: float,
        bit_order: BitOrder,
    ):
        self.cycle = cycle
        #: packed (2, n_words) uint64 P/N value planes
        self.value_words = value_words
        #: packed uint64 activity words, masked to real nets
        self.active_words = active_words
        #: behavioral memory accesses this cycle (1.0 also for may-access
        #: under an X enable — conservative, as peak analysis requires)
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.bit_order = bit_order

    @property
    def values(self) -> np.ndarray:
        """uint8 trit row in net order."""
        return self.bit_order.unpack_trits(
            self.value_words[0], self.value_words[1]
        )

    @property
    def active(self) -> np.ndarray:
        """bool activity row in net order."""
        return self.bit_order.unpack_bits(self.active_words)


class Trace:
    """An ordered list of cycle records with matrix views for analysis.

    Every record is packed in :attr:`bit_order`.  A trace built without
    one takes the order of its first record (until then, plain net
    order); a record in another order is refused.
    """

    def __init__(self, n_nets: int, bit_order: BitOrder | None = None):
        self.n_nets = n_nets
        self.records: list[CycleRecord] = []
        self.bit_order = bit_order or net_order(n_nets)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> CycleRecord:
        return self.records[index]

    def append(self, record: CycleRecord) -> None:
        if record.bit_order is not self.bit_order:
            if self.records:
                raise ValueError("a trace holds records of one bit order")
            self.bit_order = record.bit_order
        self.records.append(record)

    def values_matrix(self, packed: bool = False) -> np.ndarray:
        """Settled values (0/1/X) of every cycle.

        ``(n_cycles, n_nets)`` uint8 trits in net order, unpacked in one
        vectorized call, or with *packed* the records' ``(n_cycles, 2,
        n_words)`` uint64 P/N planes in :attr:`bit_order`, as they are.
        """
        words = self._stacked("value_words", (2, self.bit_order.n_words))
        if packed:
            return words
        return self.bit_order.unpack_trits(words[:, 0], words[:, 1])

    def active_matrix(self, packed: bool = False) -> np.ndarray:
        """Activity flags of every cycle.

        ``(n_cycles, n_nets)`` bool in net order, or with *packed* the
        ``(n_cycles, n_words)`` uint64 A-plane words in :attr:`bit_order`.
        """
        words = self._stacked("active_words", (self.bit_order.n_words,))
        return words if packed else self.bit_order.unpack_bits(words)

    def _stacked(self, attr: str, shape: tuple) -> np.ndarray:
        if not self.records:
            return np.zeros((0, *shape), dtype=np.uint64)
        # as np.stack, without a view per record
        return np.array([getattr(record, attr) for record in self.records])

    def mem_accesses(self) -> np.ndarray:
        """(n_cycles, 2) array of [reads, writes] per cycle."""
        return np.array(
            [[r.mem_reads, r.mem_writes] for r in self.records]
        ).reshape(-1, 2)

    def toggled_any(self) -> np.ndarray:
        """Per-net flag: was the net active in *any* cycle of the trace?

        This is the "potentially-toggled" gate set of Figure 3.4.  The
        union is taken over the packed activity words (64 nets per OR)
        and unpacked once at the end.
        """
        packed = self.active_matrix(packed=True)
        return self.bit_order.unpack_bits(np.bitwise_or.reduce(packed, axis=0))

    def activity_counts(self) -> np.ndarray:
        """Number of active nets per cycle (the paper's activity rate).

        Computed with ``np.bitwise_count`` over the packed activity
        words; pads are never active, so this counts the net-order set.
        """
        from repro.sim.bitplane import popcount

        return popcount(self.active_matrix(packed=True)).astype(np.int64)

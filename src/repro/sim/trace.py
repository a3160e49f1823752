"""Cycle-by-cycle simulation records.

A :class:`Trace` is the bridge between simulation and power analysis: for
every simulated cycle it stores the settled net values (with Xs), the
activity flags from the paper's marking rule, and the behavioral memory
access energy.  Annotations (program counter, decoded instruction, frontend
state) are attached by the CPU wrapper for the COI analysis of §3.5.

Records come in two layouts:

* **unpacked** — ``values`` (uint8 trits) and ``active`` (bool) rows in
  netlist net order, as the reference machine produces them, and
* **packed** — dual-rail ``value_words`` (``(2, n_words)`` uint64 P/N
  planes) plus ``active_words``, as the native engine's explore and
  concrete batches record them.  Packed records unpack **lazily** (per
  record on attribute access, or in one bulk call for whole-trace
  matrices), so a run never pays a per-cycle unpack for rows nobody
  reads per cycle.

Both layouts expose the same ``values``/``active`` attributes and produce
bit-identical matrices; consumers never need to know which one they got.
Whole-trace consumers can also stay packed: ``values_matrix(packed=True)``
and ``active_matrix(packed=True)`` hand out the words in
:attr:`Trace.bit_order` — the recording engine's order, or plain net
order for unpacked traces, which are packed once at this boundary.
Algorithm 2 (:mod:`repro.core.peakpower`) and the activity reductions
work on those words.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.netlist.program import net_order


class CycleRecord:
    """Everything captured about one simulated clock cycle.

    ``values``/``active`` unpack lazily from ``value_words`` /
    ``active_words`` (via ``packing``) when the record was captured
    packed; the unpacked rows are cached on first access.
    """

    __slots__ = (
        "cycle",
        "_values",
        "_active",
        "mem_reads",
        "mem_writes",
        "annotations",
        "active_words",
        "value_words",
        "packing",
    )

    def __init__(
        self,
        cycle: int,
        values: np.ndarray | None = None,
        active: np.ndarray | None = None,
        mem_reads: float = 0.0,
        mem_writes: float = 0.0,
        annotations: dict[str, Any] | None = None,
        active_words: np.ndarray | None = None,
        value_words: np.ndarray | None = None,
        packing=None,
    ):
        self.cycle = cycle
        self._values = values
        self._active = active
        #: behavioral memory accesses this cycle (1.0 also for may-access
        #: under an X enable — conservative, as peak analysis requires)
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.annotations = {} if annotations is None else annotations
        #: packed uint64 activity words (native engine only; already
        #: masked to real nets) — whole-trace activity reductions stay packed
        self.active_words = active_words
        #: packed (2, n_words) P/N value planes (native batch records only)
        self.value_words = value_words
        #: the :class:`~repro.netlist.program.NetlistProgram` whose bit
        #: order the packed words use; required to unpack lazily
        self.packing = packing

    @property
    def values(self) -> np.ndarray:
        """uint8 trit row in net order, unpacked on demand and cached."""
        if self._values is None and self.value_words is not None:
            row = self.packing.unpack_trits(
                self.value_words[0], self.value_words[1]
            )
            row.setflags(write=False)
            self._values = row
        return self._values

    @property
    def active(self) -> np.ndarray:
        """bool activity row in net order, unpacked on demand and cached."""
        if self._active is None and self.active_words is not None:
            self._active = self.packing.unpack_bits(self.active_words)
        return self._active


class Trace:
    """An ordered list of cycle records with matrix views for analysis.

    The matrix views come unpacked (net-order rows) or packed (words in
    :attr:`bit_order`).  Either way a trace whose records all carry
    packed words is converted in one vectorized call over the stacked
    words; otherwise the rows are stacked (and packed once if asked).
    """

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self.records: list[CycleRecord] = []
        #: the :class:`~repro.netlist.program.NetlistProgram` whose bit
        #: order the records' packed words use (native traces only)
        self.packing = None

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> CycleRecord:
        return self.records[index]

    def append(self, record: CycleRecord) -> None:
        self.records.append(record)

    def extend(self, other: "Trace") -> None:
        self.records.extend(other.records)

    @property
    def bit_order(self):
        """The bit order of :meth:`values_matrix`/:meth:`active_matrix`
        with ``packed=True``: the recording engine's
        :class:`~repro.netlist.program.NetlistProgram`, or plain net order
        (:func:`~repro.netlist.program.net_order`) for unpacked traces."""
        if self.packing is not None:
            return self.packing
        return net_order(self.n_nets)

    def values_matrix(self, packed: bool = False) -> np.ndarray:
        """Settled values (0/1/X) of every cycle.

        ``(n_cycles, n_nets)`` uint8 trits in net order, or with *packed*
        ``(n_cycles, 2, n_words)`` uint64 P/N planes in :attr:`bit_order`.
        When every record carries its plane words they are stacked as
        they are — and unpacked in **one** vectorized call when rows are
        asked for — whether or not some record already cached its row.
        Otherwise the rows are stacked and, for *packed*, packed once.
        """
        words = self._stacked_words("value_words")
        if words is None:
            rows = self._stacked_rows("values", np.uint8)
            return self.bit_order.pack_values(rows) if packed else rows
        if packed:
            return words
        return self.packing.unpack_trits(words[:, 0], words[:, 1])

    def active_matrix(self, packed: bool = False) -> np.ndarray:
        """Activity flags of every cycle.

        ``(n_cycles, n_nets)`` bool in net order, or with *packed*
        ``(n_cycles, n_words)`` uint64 A-plane words in :attr:`bit_order`;
        same word-first rule as :meth:`values_matrix`.
        """
        words = self._stacked_words("active_words")
        if words is None:
            rows = self._stacked_rows("active", bool)
            return self.bit_order.pack_active(rows) if packed else rows
        if packed:
            return words
        return self.packing.unpack_bits(words)

    def _stacked_words(self, attr: str) -> np.ndarray | None:
        """Every record's packed *attr* words, stacked — or ``None``
        unless the trace has a packing and every record has them."""
        if self.packing is None or not self.records:
            return None
        words = [getattr(record, attr) for record in self.records]
        if any(w is None for w in words):
            return None
        return np.array(words)  # as np.stack, without a view per record

    def _stacked_rows(self, attr: str, dtype) -> np.ndarray:
        if not self.records:
            return np.zeros((0, self.n_nets), dtype=dtype)
        return np.stack([getattr(record, attr) for record in self.records])

    def mem_accesses(self) -> np.ndarray:
        """(n_cycles, 2) array of [reads, writes] per cycle."""
        return np.array(
            [[r.mem_reads, r.mem_writes] for r in self.records]
        ).reshape(-1, 2)

    def annotation(self, key: str, default: Any = None) -> list[Any]:
        return [r.annotations.get(key, default) for r in self.records]

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

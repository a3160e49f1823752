"""Cycle-by-cycle simulation records.

A :class:`Trace` is the bridge between simulation and power analysis: for
every simulated cycle it stores the settled net values (with Xs), the
activity flags from the paper's marking rule, and the behavioral memory
access energy.

A trace is columnar, whichever engine recorded it: ``(rows, 3, n_words)``
uint64 planes (dual-rail P/N values, then the A-plane words; pads are
never active) and a ``[cycle, reads, writes]`` column, packed in the
trace's :attr:`~Trace.bit_order`: the native evaluator's
:class:`~repro.netlist.program.NetlistProgram`, or plain net order
(:func:`~repro.netlist.program.net_order`) for the reference engine.
Rows are appended into blocks that are filled in place, never copied to
grow; the first matrix read merges them into one block, of which
``values_matrix(packed=True)``, ``active_matrix(packed=True)`` and
``mem_accesses()`` are views.  A batch step appends all its live rows to
its batch's trace, the *arena*, at once; its users keep arena row
indices and cut per-path traces out of it with :meth:`Trace.take` (a
gather into a block of its own) or :meth:`Trace.view` (an index,
gathered on each read).  ``trace[i]`` unpacks one row into a
:class:`CycleRecord`.

The COI annotations of §3.5 (FSM state, PC, instruction word) are buses
of these settled values, so a trace stores none: the CPU decodes them
from the packed value matrix when something asks
(:meth:`repro.cpu.core.Ulp430.annotate`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.netlist.program import BitOrder, net_order

#: rows of a trace's first block (by default); each later block holds as
#: many rows as the trace already has, up to :data:`MAX_BLOCK_ROWS`
MIN_BLOCK_ROWS = 64
MAX_BLOCK_ROWS = 4096


def pack_rows(order: BitOrder, values: np.ndarray, active: np.ndarray):
    """uint8 trit rows and their bool activity -> ``(k, 3, n_words)``
    planes in *order*, as :meth:`Trace.append_rows` takes them."""
    packed = [order.pack_values(values), order.pack_active(active)[:, None]]
    return np.concatenate(packed, axis=1)


class CycleRecord(NamedTuple):
    """One row of a trace, unpacked: trits and activity in net order."""

    cycle: int
    values: np.ndarray
    active: np.ndarray
    mem_reads: float
    mem_writes: float


class Trace:
    """An ordered list of cycle rows with matrix views for analysis.

    Every row is packed in :attr:`bit_order`.  A trace built without one
    takes the order of its first rows (until then, plain net order);
    rows in another order are refused.
    """

    def __init__(
        self,
        n_nets: int,
        bit_order: BitOrder | None = None,
        block_rows: int = MIN_BLOCK_ROWS,
    ):
        self.n_nets = n_nets
        self.bit_order = bit_order or net_order(n_nets)
        #: (planes, meta) blocks and their first rows; the last block has
        #: room for ``_room`` more rows
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._starts: list[int] = []
        self._n = self._room = 0
        self._block_rows = block_rows
        #: an index view reads rows ``_rows`` of ``_base``
        self._base: Trace | None = None
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> CycleRecord:
        if self._base is not None:
            return self._base[int(self._rows[index])]
        planes, (cycle, reads, writes) = (c[index] for c in self._columns())
        order = self.bit_order
        return CycleRecord(
            int(cycle), order.unpack_trits(planes[0], planes[1]),
            order.unpack_bits(planes[2]), float(reads), float(writes),
        )

    def append_rows(self, planes: np.ndarray, meta, bit_order: BitOrder) -> None:
        """Copy ``(k, 3, n_words)`` rows and their ``(cycle, reads,
        writes)`` triples onto the end."""
        if bit_order is not self.bit_order:
            if self._n:
                raise ValueError("a trace holds records of one bit order")
            self.bit_order = bit_order
        done = 0
        while done < len(planes):
            if not self._room:
                self._room = max(self._block_rows, min(self._n, MAX_BLOCK_ROWS))
                self._blocks.append((
                    np.empty((self._room, 3, bit_order.n_words), np.uint64),
                    np.empty((self._room, 3)),
                ))
                self._starts.append(self._n)
            take = min(len(planes) - done, self._room)
            at = self._n - self._starts[-1]
            for dst, src in zip(self._blocks[-1], (planes, meta)):
                dst[at : at + take] = src[done : done + take]
            done, self._n, self._room = done + take, self._n + take, self._room - take

    def take(self, rows) -> "Trace":
        """A trace of its own holding *rows* of this one, in that order,
        gathered into one block."""
        trace = Trace(self.n_nets, self.bit_order)
        trace._blocks, trace._starts, trace._n = [self._gather(rows)], [0], len(rows)
        return trace

    def view(self, rows) -> "Trace":
        """A read-only index over *rows* of this trace, gathered on each
        read (so the lanes of a lock-step run share its arena)."""
        trace = Trace(self.n_nets, self.bit_order)
        trace._base, trace._rows = self, np.asarray(rows, dtype=np.int64)
        trace._n = len(rows)
        return trace

    def _gather(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the planes and meta of *rows*."""
        if self._base is not None:
            return self._base._gather(self._rows[rows])
        rows = np.asarray(rows, dtype=np.int64)
        if len(self._blocks) == 1:
            return tuple(column.take(rows, axis=0) for column in self._blocks[0])
        out = (
            np.empty((len(rows), 3, self.bit_order.n_words), np.uint64),
            np.empty((len(rows), 3)),
        )
        which = np.searchsorted(self._starts, rows, side="right") - 1
        for number, start in enumerate(self._starts):
            picked = np.flatnonzero(which == number)
            for dst, src in zip(out, self._blocks[number]):
                dst[picked] = src[rows[picked] - start]
        return out

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Planes and meta of every row: views of the one block (blocks
        are merged on the first read), or a gather for an index view."""
        if self._base is not None or len(self._blocks) != 1:
            columns = self._gather(np.arange(self._n))
            if self._base is not None:
                return columns
            self._blocks, self._starts, self._room = [columns], [0], 0
        return tuple(column[: self._n] for column in self._blocks[0])

    def values_matrix(self, packed: bool = False) -> np.ndarray:
        """Settled values (0/1/X) of every cycle.

        ``(n_cycles, n_nets)`` uint8 trits in net order, unpacked in one
        vectorized call, or with *packed* the ``(n_cycles, 2, n_words)``
        uint64 P/N planes in :attr:`bit_order`, a view of the rows.
        """
        words = self._columns()[0][:, 0:2]
        if packed:
            return words
        return self.bit_order.unpack_trits(words[:, 0], words[:, 1])

    def active_matrix(self, packed: bool = False) -> np.ndarray:
        """Activity flags of every cycle.

        ``(n_cycles, n_nets)`` bool in net order, or with *packed* the
        ``(n_cycles, n_words)`` uint64 A-plane words in :attr:`bit_order`.
        """
        words = self._columns()[0][:, 2]
        return words if packed else self.bit_order.unpack_bits(words)

    def cycles(self) -> np.ndarray:
        """Each row's cycle number."""
        return self._columns()[1][:, 0].astype(np.int64)

    def mem_accesses(self) -> np.ndarray:
        """(n_cycles, 2) array of [reads, writes] per cycle."""
        return self._columns()[1][:, 1:]

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


def group_rows(tags: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """The rows of each group ``0..n_groups-1`` in row order, from each
    row's group *tag* (-1: none) — how a batch's users split its arena."""
    order = np.argsort(tags, kind="stable")
    bounds = np.searchsorted(tags[order], np.arange(n_groups + 1))
    return [order[bounds[g] : bounds[g + 1]] for g in range(n_groups)]

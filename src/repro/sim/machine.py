"""The clocked machine: netlist + behavioral memory + forced inputs.

One :class:`Machine` instance is a complete simulatable system.  The same
machine runs both modes of the paper:

* **symbolic mode** — peripheral inputs forced to X, memory input regions
  loaded as X (Algorithm 1's setting), and
* **concrete mode** — all inputs concrete, used for input-based profiling,
  validation, and the baselines.

The machine is snapshot/restorable so the execution-tree explorer can fork
at input-dependent branches, and hashable so visited states are memoized.
A step records into a :class:`~repro.sim.trace.Trace` in the one row
layout: packed value and activity words in :attr:`Machine.bit_order`
(the reference engine packs its uint8 row when it records one).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.logic import X
from repro.netlist.core import Netlist
from repro.netlist.program import N_PLANE, P_PLANE, net_order
from repro.sim.bitplane import make_evaluator
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.memory import TernaryMemory
from repro.sim.trace import Trace, pack_rows

MASK16 = 0xFFFF


@dataclass
class MemoryPorts:
    """Net ids wiring the netlist to the behavioral memory.

    ``dout`` nets must be INPUT gates (the memory drives them); the rest
    are ordinary netlist outputs sampled after each cycle settles.
    """

    addr: list[int]
    din: list[int]
    dout: list[int]
    we: int
    en: int


@dataclass
class _MemRequest:
    """Memory control sampled at the end of a cycle (sync-SRAM timing).

    Never mutated once assigned: every writer builds a fresh request and
    assigns it as a whole, so machines, lanes and snapshots share one
    request object instead of copying it.  Not ``frozen``: a batch step
    builds one per lane and call, and a frozen ``__init__`` is slower.
    """

    addr: int | None = None
    addr_known: bool = False
    en: int = 0
    we: int = 0
    din_value: int = 0
    din_xmask: int = MASK16


def read_bus(values: np.ndarray, nets: list[int]) -> tuple[int, int]:
    """Decode an LSB-first bus into ``(value, xmask)`` integers."""
    value = 0
    xmask = 0
    for position, net in enumerate(nets):
        bit = values[net]
        if bit == X:
            xmask |= 1 << position
        elif bit:
            value |= 1 << position
    return value, xmask


def force_bus(
    values: np.ndarray, nets: list[int], value: int, xmask: int = 0
) -> None:
    """Drive an LSB-first bus of INPUT nets with a (value, xmask) word."""
    for position, net in enumerate(nets):
        if (xmask >> position) & 1:
            values[net] = X
        else:
            values[net] = (value >> position) & 1


# ----------------------------------------------------------------------
# Packed-state port primitives of the native engine's Machine (a batch
# does its port I/O inside the native step).  Forced nets are INPUT
# gates, so their packed bits live in the source block and are updated
# with a handful of masked read-modify-writes on whole uint64 words —
# the planes never unpack.
# ----------------------------------------------------------------------
def compile_trit_masks(program, assignments: dict[int, int]) -> list[tuple]:
    """{net: trit} -> per-word (all_bits, p_bits, n_bits) Python-int masks."""
    by_word: dict[int, list[int]] = {}
    for net, value in assignments.items():
        pos = int(program.pos_of[net])
        word, bit = pos >> 6, 1 << (pos & 63)
        masks = by_word.setdefault(word, [0, 0, 0])
        masks[0] |= bit
        if value != 0:  # 1 and X raise the P ("can be 1") rail
            masks[1] |= bit
        if value != 1:  # 0 and X raise the N ("can be 0") rail
            masks[2] |= bit
    return [(w, m[0], m[1], m[2]) for w, m in sorted(by_word.items())]


def apply_trit_masks(planes: np.ndarray, masks: list[tuple]) -> None:
    """Apply :func:`compile_trit_masks` output to one (3, n_words) state."""
    for word, all_bits, p_bits, n_bits in masks:
        planes[P_PLANE, word] = (
            int(planes[P_PLANE, word]) & ~all_bits
        ) | p_bits
        planes[N_PLANE, word] = (
            int(planes[N_PLANE, word]) & ~all_bits
        ) | n_bits


def compile_bus_spec(program, nets: list[int]) -> list[tuple]:
    """Bus nets -> per-word (all_bits, [(bus bit index, plane bit)]) spec."""
    by_word: dict[int, list] = {}
    for position, net in enumerate(nets):
        pos = int(program.pos_of[net])
        word, bit = pos >> 6, 1 << (pos & 63)
        entry = by_word.setdefault(word, [0, []])
        entry[0] |= bit
        entry[1].append((position, bit))
    return [(w, e[0], tuple(e[1])) for w, e in sorted(by_word.items())]


def read_bus_planes(planes: np.ndarray, spec: list[tuple]) -> tuple[int, int]:
    """Decode a compiled bus spec from packed planes into (value, xmask).

    The read mirror of :func:`force_bus_planes`: a handful of whole-word
    plane reads and Python-int bit tests, so probing a 16-bit bus never
    unpacks the full value row.  Semantics match :func:`read_bus` on the
    unpacked row exactly (P&N -> X, P only -> 1, N only -> 0).
    """
    value = 0
    xmask = 0
    for word, _all_bits, bits in spec:
        p = int(planes[P_PLANE, word])
        n = int(planes[N_PLANE, word])
        for position, bit in bits:
            if p & bit:
                if n & bit:
                    xmask |= 1 << position
                else:
                    value |= 1 << position
    return value, xmask


def read_trit_planes(planes: np.ndarray, spec: list[tuple]) -> int:
    """Read a single-net compiled spec as a trit (0/1/X)."""
    value, xmask = read_bus_planes(planes, spec)
    return X if xmask else value


@dataclass
class PortSpecs:
    """Compiled packed bus specs for every memory-port probe.

    Built once per packed :class:`Machine` so
    :func:`sample_memory_control_packed` can latch the memory request
    with word reads instead of unpacking the whole value row.
    """

    addr: list[tuple]
    din: list[tuple]
    en: list[tuple]
    we: list[tuple]

    @classmethod
    def compile(cls, program, ports: "MemoryPorts") -> "PortSpecs":
        return cls(
            addr=compile_bus_spec(program, ports.addr),
            din=compile_bus_spec(program, ports.din),
            en=compile_bus_spec(program, [ports.en]),
            we=compile_bus_spec(program, [ports.we]),
        )


def force_inputs_packed(planes: np.ndarray, state, program) -> None:
    """Apply *state*'s ``forced_inputs`` to one packed (3, n_words) row.

    *state* carries ``forced_inputs`` plus the ``_forced_src``/
    ``_forced_masks`` cache slots.  The compiled per-word masks are
    rebuilt only when the dict changes.
    """
    if not state.forced_inputs:
        return
    if state._forced_src != state.forced_inputs:
        state._forced_src = dict(state.forced_inputs)
        state._forced_masks = compile_trit_masks(program, state.forced_inputs)
    apply_trit_masks(planes, state._forced_masks)


def force_bus_planes(
    planes: np.ndarray, spec: list[tuple], value: int, xmask: int
) -> None:
    """Drive a compiled bus spec with a (value, xmask) word, in place."""
    for word, all_bits, bits in spec:
        p_bits = n_bits = 0
        for position, bit in bits:
            if (xmask >> position) & 1:
                p_bits |= bit
                n_bits |= bit
            elif (value >> position) & 1:
                p_bits |= bit
            else:
                n_bits |= bit
        planes[P_PLANE, word] = (
            int(planes[P_PLANE, word]) & ~all_bits
        ) | p_bits
        planes[N_PLANE, word] = (
            int(planes[N_PLANE, word]) & ~all_bits
        ) | n_bits


# ----------------------------------------------------------------------
# Memory-port protocol, shared by Machine and sim.batch.BatchMachine.
# *state* is any object carrying ``memory``, ``dout_value``, ``dout_xmask``
# and ``_request`` attributes; keeping one implementation guarantees the
# scalar and batched engines can never drift apart.
# ----------------------------------------------------------------------
def latch_memory_request(values: np.ndarray, ports: "MemoryPorts") -> _MemRequest:
    """The memory request of settled *values*."""
    addr_value, addr_xmask = read_bus(values, ports.addr)
    request = _MemRequest()
    request.addr_known = addr_xmask == 0
    request.addr = addr_value if request.addr_known else None
    request.en = int(values[ports.en])
    request.we = int(values[ports.we])
    request.din_value, request.din_xmask = read_bus(values, ports.din)
    return request


def sample_memory_control(state, values: np.ndarray, ports: "MemoryPorts") -> None:
    """Latch the memory request from settled *values* and commit writes."""
    state._request = latch_memory_request(values, ports)
    commit_memory_write(state, state._request)


def sample_memory_control_packed(
    state, planes: np.ndarray, specs: PortSpecs
) -> None:
    """Latch the memory request straight from settled packed planes.

    Bit-identical to :func:`sample_memory_control` on the unpacked row —
    the packed :class:`Machine`'s latch.
    """
    addr_value, addr_xmask = read_bus_planes(planes, specs.addr)
    request = _MemRequest()
    request.addr_known = addr_xmask == 0
    request.addr = addr_value if request.addr_known else None
    request.en = read_trit_planes(planes, specs.en)
    request.we = read_trit_planes(planes, specs.we)
    request.din_value, request.din_xmask = read_bus_planes(planes, specs.din)
    state._request = request
    commit_memory_write(state, request)


def commit_memory_write(state, request: _MemRequest) -> None:
    if request.we == 0:
        return
    if request.we == 1:
        state.memory.write(
            request.addr if request.addr_known else None,
            request.din_value,
            request.din_xmask,
        )
    else:  # we == X: the store may or may not happen
        state.memory.write_uncertain(
            request.addr if request.addr_known else None,
            request.din_value,
            request.din_xmask,
        )


def serve_memory_read(state) -> tuple[float, float]:
    """Update the dout register; return (reads, writes) this cycle."""
    request = state._request
    reads = writes = 0.0
    if request.en == 1:
        value, xmask = state.memory.read(
            request.addr if request.addr_known else None
        )
        state.dout_value, state.dout_xmask = value, xmask
        reads = 1.0
    elif request.en == X:
        value, xmask = state.memory.read(
            request.addr if request.addr_known else None
        )
        differs = (state.dout_value ^ value) | state.dout_xmask | xmask
        state.dout_value &= ~differs & MASK16
        state.dout_xmask = differs & MASK16
        reads = 1.0  # conservative: the access may happen
    if request.we in (1, X):
        writes = 1.0
    return reads, writes


class Machine:
    """A complete clocked system: CPU netlist plus behavioral memory."""

    def __init__(
        self,
        netlist: Netlist,
        ports: MemoryPorts,
        evaluator: LevelizedEvaluator | None = None,
        memory: TernaryMemory | None = None,
    ):
        self.netlist = netlist
        self.ports = ports
        #: ``evaluator=None`` builds the native evaluator (the reference
        #: engine when the kernel cannot be built); pass a
        #: LevelizedEvaluator for the uint8 reference engine.
        self.evaluator = evaluator or make_evaluator(netlist)
        #: True when state lives in packed dual-rail bit planes
        self.packed = bool(getattr(self.evaluator, "packed", False))
        #: the bit order of the records this machine steps into a trace
        self.bit_order = (
            self.evaluator.program if self.packed else net_order(netlist.n_nets)
        )
        self.memory = memory or TernaryMemory()
        if self.packed:
            #: (3, n_words) uint64 P/N/A planes — the machine state
            self.planes = self.evaluator.fresh_planes()
            self._values_cache: np.ndarray | None = None
            self._dout_spec = None
            self._port_specs: PortSpecs | None = None
            self._forced_src: dict[int, int] | None = None
            self._forced_masks: list[tuple] = []
        else:
            self.values = self.evaluator.fresh_values()
        self.cycle = 0
        #: Last-read memory word presented on the dout bus (sync SRAM reg).
        self.dout_value = 0
        self.dout_xmask = MASK16
        self._request = _MemRequest()
        self._prev_active = np.zeros(netlist.n_nets, dtype=bool)
        #: Externally forced input nets (peripheral ports, irq lines, ...).
        self.forced_inputs: dict[int, int] = {}
        #: One-shot DFF load overrides {dff net: value}, consumed by the
        #: next step().  The execution-tree explorer uses this to assume a
        #: concrete value for an unknown status flag on each forked path.
        self.next_dff_forces: dict[int, int] = {}
        self._dff_pos = {
            int(net): pos for pos, net in enumerate(self.evaluator.dff_out)
        }
        #: Copy-on-write marker: True while ``self.values`` may be shared
        #: with a snapshot; :meth:`step` materializes a private copy
        #: before mutating.
        self._values_shared = False

    # ------------------------------------------------------------------
    # Values view: the uint8 net-order vector every consumer reads.  The
    # reference engine owns it outright; the packed engine stores planes
    # and unpacks on demand (cached per settle).
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        if not self.packed:
            return self._trits
        if self._values_cache is None:
            cache = self.evaluator.unpack_values(self.planes)
            # read-only: element writes here would bypass the planes
            cache.setflags(write=False)
            self._values_cache = cache
        return self._values_cache

    @values.setter
    def values(self, array: np.ndarray) -> None:
        if self.packed:
            raise AttributeError(
                "packed machines derive .values from the packed planes; "
                "mutate state through step()/restore()/forced_inputs"
            )
        self._trits = array

    # ------------------------------------------------------------------
    # State management (forking + memoization)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A restorable state capture, copy-on-write where possible.

        ``values`` is shared with the machine until the next :meth:`step`
        (which materializes before mutating); ``memory`` is a
        :meth:`~repro.sim.memory.TernaryMemory.fork`; ``prev_active`` and
        the memory request are only ever reassigned, never mutated in
        place, so their references are shared outright.  Snapshots are
        therefore O(registers) per cycle instead of O(memory), which is
        what makes the per-cycle snapshot of the execution explorers
        affordable.
        """
        self._values_shared = True
        return {
            "values": self.planes if self.packed else self.values,
            "memory": self.memory.fork(),
            "cycle": self.cycle,
            "dout_value": self.dout_value,
            "dout_xmask": self.dout_xmask,
            "request": self._request,
            "prev_active": None if self.packed else self._prev_active,
            "forced_inputs": dict(self.forced_inputs),
            "next_dff_forces": dict(self.next_dff_forces),
        }

    def restore(self, snap: dict[str, Any]) -> None:
        """Adopt *snap* without invalidating it (copy-on-write adoption)."""
        if self.packed:
            self.planes = snap["values"]
            self._values_cache = None
        else:
            self.values = snap["values"]
            self._prev_active = snap["prev_active"]
        self._values_shared = True
        self.memory = snap["memory"].fork()
        self.cycle = snap["cycle"]
        self.dout_value = snap["dout_value"]
        self.dout_xmask = snap["dout_xmask"]
        self._request = snap["request"]
        self.forced_inputs = dict(snap["forced_inputs"])
        self.next_dff_forces = dict(snap["next_dff_forces"])

    def state_key(self) -> bytes:
        """Architectural-state fingerprint for execution-tree memoization."""
        return Machine.snapshot_state_key(
            {
                "values": self.planes if self.packed else self.values,
                "dout_value": self.dout_value,
                "dout_xmask": self.dout_xmask,
                "memory": self.memory,
                "request": self._request,
            },
            self.evaluator,
        )

    @staticmethod
    def snapshot_state_key(snap: dict, key_source) -> bytes:
        """State fingerprint of a snapshot dict (see :meth:`state_key`).

        Covers everything that determines future behaviour: flip-flop
        values, the registered memory-read word, the pending memory
        request, and the full memory contents.  *key_source* is the
        machine's evaluator (either engine): the reference engine's
        values are read at its ``dff_out`` nets, and the packed engine
        fingerprints its DFF plane words directly — a bijective encoding
        of the same flip-flop values, so the induced state-equivalence
        relation (and therefore the execution tree) is identical.
        """
        h = hashlib.blake2b(digest_size=16)
        values = snap["values"]
        if values.dtype == np.uint64:
            h.update(key_source.state_bytes(values))
        else:
            h.update(values[key_source.dff_out].tobytes())
        h.update(int(snap["dout_value"]).to_bytes(2, "little"))
        h.update(int(snap["dout_xmask"]).to_bytes(2, "little"))
        request = snap["request"]
        h.update(
            repr(
                (
                    request.addr,
                    request.addr_known,
                    request.en,
                    request.we,
                    request.din_value,
                    request.din_xmask,
                )
            ).encode()
        )
        h.update(snap["memory"].digest())
        return h.digest()

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def _apply_inputs(self) -> None:
        force_bus(
            self.values, self.ports.dout, self.dout_value, self.dout_xmask
        )
        for net, value in self.forced_inputs.items():
            self.values[net] = value

    def _apply_inputs_packed(self) -> None:
        program = self.evaluator.program
        if self._dout_spec is None:
            self._dout_spec = compile_bus_spec(program, self.ports.dout)
        force_bus_planes(
            self.planes, self._dout_spec, self.dout_value, self.dout_xmask
        )
        force_inputs_packed(self.planes, self, program)

    def _sample_memory_control(self) -> None:
        sample_memory_control(self, self.values, self.ports)

    def _serve_read(self) -> tuple[float, float]:
        """Update the dout register; return (reads, writes) this cycle."""
        return serve_memory_read(self)

    def step(self, reset: bool = False, trace: Trace | None = None) -> None:
        """Advance one clock cycle and optionally record it into *trace*."""
        if self.packed:
            return self._step_packed(reset, trace)
        if self._values_shared:
            # A snapshot holds self.values: hand it the old array and
            # mutate a private copy (one copy per cycle total).
            prev_values = self.values
            self.values = prev_values.copy()
            self._values_shared = False
        else:
            prev_values = self.values.copy()
        next_dff = self.evaluator.next_dff_values(self.values, reset)
        if self.next_dff_forces:
            for net, value in self.next_dff_forces.items():
                next_dff[self._dff_pos[net]] = value
            self.next_dff_forces = {}
        mem_counts = self._serve_read()
        self.values[self.evaluator.dff_out] = next_dff
        self._apply_inputs()
        self.evaluator.eval_comb(self.values)
        active = self.evaluator.compute_activity(
            prev_values, self.values, self._prev_active
        )
        self._sample_memory_control()
        self._prev_active = active
        if trace is not None:
            trace.append_rows(
                pack_rows(self.bit_order, self.values[None], active[None]),
                [(self.cycle, *mem_counts)], self.bit_order,
            )
        self.cycle += 1

    def _step_packed(self, reset: bool, trace: Trace | None) -> None:
        """One clock cycle in the packed bit-plane representation.

        Bit-identical to the reference :meth:`step`: the same update
        order, with the combinational settle and the activity marking
        fused into one sweep over the compiled level schedule.  *trace*
        copies the planes' row; the planes themselves are materialized
        only when a snapshot still shares them.
        """
        evaluator = self.evaluator
        if self._values_shared:
            self.planes = self.planes.copy()
            self._values_shared = False
        evaluator.stash_prev(self.planes)
        next_dff = evaluator.next_dff_planes(self.planes, reset)
        if self.next_dff_forces:
            evaluator.force_dff_bits(next_dff, self.next_dff_forces)
            self.next_dff_forces = {}
        mem_counts = self._serve_read()
        evaluator.set_dff_planes(self.planes, next_dff)
        self._apply_inputs_packed()
        evaluator.settle_and_mark(self.planes)
        self._values_cache = None
        if self._port_specs is None:
            self._port_specs = PortSpecs.compile(evaluator.program, self.ports)
        sample_memory_control_packed(self, self.planes, self._port_specs)
        if trace is not None:
            trace.append_rows(
                self.planes[None], [(self.cycle, *mem_counts)], self.bit_order
            )
        self.cycle += 1

    def reset_sequence(self, cycles: int = 2, trace: Trace | None = None) -> None:
        """Hold reset for *cycles* clock edges (Algorithm 1 line 4)."""
        for _ in range(cycles):
            self.step(reset=True, trace=trace)

    def peek_bus(self, nets: list[int]) -> tuple[int, int]:
        return read_bus(self.values, nets)

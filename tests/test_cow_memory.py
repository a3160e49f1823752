"""Copy-on-write snapshot layer: observationally identical to eager copies.

Randomized (seeded) interleavings of forks and writes over a whole family
tree of memories, mirrored against a plain eager-copy reference — the CoW
sharing, materialization, and digest caching must never change what any
member observes.  Plus the machine-level contract: a snapshot taken
before stepping is immutable, however the machine is driven afterwards.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.sim.memory import MASK16, MemoryXAddressError, TernaryMemory


def eager_state(memory: TernaryMemory) -> tuple[np.ndarray, np.ndarray]:
    return memory.words.copy(), memory.xmask.copy()


def fresh_digest(memory: TernaryMemory) -> bytes:
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(memory.words.tobytes())
    h.update(memory.xmask.tobytes())
    return h.digest()


class TestCoWProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_fork_then_mutate_isolation(self, seed):
        """Any interleaving of forks and writes keeps every family member
        equal to its eagerly-copied mirror."""
        rng = np.random.default_rng(900 + seed)
        n_words = 32
        root = TernaryMemory(n_words=n_words)
        family = [root]
        mirrors = [eager_state(root)]
        for _step in range(120):
            victim = int(rng.integers(0, len(family)))
            memory = family[victim]
            op = rng.integers(0, 4)
            if op == 0 and len(family) < 12:
                family.append(memory.fork())
                mirrors.append(
                    (mirrors[victim][0].copy(), mirrors[victim][1].copy())
                )
                continue
            addr = int(rng.integers(0, n_words))
            value = int(rng.integers(0, 1 << 16))
            xmask = int(rng.integers(0, 1 << 16))
            words, xmasks = mirrors[victim]
            if op == 1:
                memory.write(addr, value, xmask)
                words[addr] = value & MASK16 & ~xmask
                xmasks[addr] = xmask & MASK16
            elif op == 2:
                memory.write_uncertain(addr, value, xmask)
                differs = (
                    (int(words[addr]) ^ (value & MASK16))
                    | int(xmasks[addr])
                    | (xmask & MASK16)
                )
                words[addr] = int(words[addr]) & ~differs & MASK16
                xmasks[addr] = differs & MASK16
            else:
                memory.load_word(addr, value, xmask)
                words[addr] = value & MASK16
                xmasks[addr] = xmask & MASK16
        for memory, (words, xmasks) in zip(family, mirrors):
            assert np.array_equal(memory.words, words)
            assert np.array_equal(memory.xmask, xmasks)

    @pytest.mark.parametrize("seed", range(3))
    def test_digest_cache_tracks_contents(self, seed):
        """The memoized digest always equals a fresh hash of the arrays."""
        rng = np.random.default_rng(50 + seed)
        memory = TernaryMemory(n_words=16)
        family = [memory]
        for _step in range(60):
            victim = family[int(rng.integers(0, len(family)))]
            op = rng.integers(0, 3)
            if op == 0 and len(family) < 6:
                family.append(victim.fork())
            elif op == 1:
                victim.write(
                    int(rng.integers(0, 16)), int(rng.integers(0, 1 << 16))
                )
            for member in family:
                assert member.digest() == fresh_digest(member)

    def test_copy_is_observational_deep_copy(self):
        memory = TernaryMemory(n_words=8)
        memory.write(3, 0x1234)
        clone = memory.copy()
        memory.write(3, 0x9999)
        clone.write(4, 0x4444)
        assert memory.read(3) == (0x9999, 0)
        assert clone.read(3) == (0x1234, 0)
        assert memory.read(4)[1] == MASK16  # still unknown in the parent
        assert clone.read(4) == (0x4444, 0)

    def test_x_address_store_still_rejected(self):
        memory = TernaryMemory(n_words=8).fork()
        with pytest.raises(MemoryXAddressError):
            memory.write(None, 1)


PROGRAM = """
        .equ WDTCTL, 0x0120
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #5, r4
        mov r4, &0x0300
        add r4, r4
        mov r4, &0x0302
end:    jmp end
"""


class TestMachineSnapshotImmutability:
    """Machine snapshots share state copy-on-write but must stay frozen."""

    def test_snapshot_survives_stepping(self, cpu):
        program = assemble(PROGRAM, "cow")
        machine = cpu.make_machine(program, symbolic_inputs=True)
        snap = machine.snapshot()
        frozen_values = snap["values"].copy()
        # The native engine carries activity inside the packed planes
        # (snap["values"]); the reference engine snapshots it separately.
        frozen_active = (
            None if snap["prev_active"] is None else snap["prev_active"].copy()
        )
        frozen_digest = snap["memory"].digest()
        for _ in range(20):
            machine.step()
        assert np.array_equal(snap["values"], frozen_values)
        if frozen_active is not None:
            assert np.array_equal(snap["prev_active"], frozen_active)
        assert snap["memory"].digest() == frozen_digest

    def test_restore_round_trip_is_exact(self, cpu):
        program = assemble(PROGRAM, "cow")
        machine = cpu.make_machine(program, symbolic_inputs=True)
        for _ in range(3):
            machine.step()
        snap = machine.snapshot()
        records_a = [machine.step() for _ in range(15)]
        machine.restore(snap)
        records_b = [machine.step() for _ in range(15)]
        for a, b in zip(records_a, records_b):
            assert a.cycle == b.cycle
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.active, b.active)
            assert (a.mem_reads, a.mem_writes) == (b.mem_reads, b.mem_writes)

    def test_trace_records_do_not_alias_future_cycles(self, cpu):
        """A record's values must stay the cycle's settled values even
        though the machine hands the same array onward copy-on-write."""
        from repro.sim.trace import Trace

        program = assemble(PROGRAM, "cow")
        machine = cpu.make_machine(program, symbolic_inputs=True)
        trace = Trace(machine.netlist.n_nets)
        frozen = []
        for _ in range(10):
            record = machine.step(trace=trace)
            frozen.append(record.values.copy())
        for record, values in zip(trace.records, frozen):
            assert np.array_equal(record.values, values)

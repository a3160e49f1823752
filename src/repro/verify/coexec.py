"""Lock-step co-execution: gate-level machine vs the behavioral ISS.

The paper's guarantee — "the bound holds for *this* application on *this*
core" — is only as strong as the gate-level model it is computed on.  This
module runs a concrete program simultaneously on the behavioral ISS
(:mod:`repro.isa.iss`, the architectural golden model) and the gate-level
:class:`~repro.sim.machine.Machine` (under either engine: native or
reference), retiring instruction by instruction and diffing the full
architectural state at every retirement boundary:

* all 16 registers (PC, SP, SR, and the r4-r15 file; r3 is the
  storage-less constant generator on both sides),
* the SR flags (C/Z/N/V) individually, for readable reports,
* the data-memory write stream (address, value) per instruction, and
* X-contamination: a concrete run must never produce an unknown bit.

The retirement boundary is the multicycle FSM's return to FETCH: at that
cycle the gate-level PC holds the next fetch address and every register
and memory effect of the retired instruction has committed, which is
exactly the ISS's state between two ``step()`` calls.

A mismatch produces a :class:`Divergence` that pinpoints the first
diverging instruction (index, PC, source line) and dumps both
architectural states; :func:`repro.verify.shrink.shrink` reduces a
diverging fuzz program to a minimal reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.disasm import disassemble_at
from repro.asm.program import Program
from repro.cpu.core import S_FETCH, Ulp430
from repro.isa.iss import InstructionSetSimulator, IssError
from repro.isa.memmap import PERIPHERAL_END
from repro.isa.spec import PC, SR, SR_C, SR_N, SR_V, SR_Z

#: FETCH + DISPATCH + SRC_EXT + SRC_RD + DST_EXT + DST_RD + CALL_PUSH is
#: the longest instruction (7 cycles); anything past this bound means the
#: gate-level FSM is stuck and never retires.
MAX_CYCLES_PER_INSTRUCTION = 12

FLAG_BITS = ((SR_C, "C"), (SR_Z, "Z"), (SR_N, "N"), (SR_V, "V"))


class CoexecError(Exception):
    """An infrastructure failure (not a divergence): ISS fault on a
    supposedly-valid program, or neither side halting within budget."""


def _fmt(value: int | None, xmask: int = 0) -> str:
    if value is None or xmask:
        return f"X(xmask={xmask:#06x})" if xmask else "X"
    return f"{value:#06x}"


@dataclass
class Divergence:
    """The first architectural disagreement between ISS and gate."""

    kind: str  # register | flag | pc | memory | x-state | halt | liveness
    index: int  # 0-based retired-instruction index
    pc: int  # fetch address of the diverging instruction
    source: str  # assembly text of that instruction
    detail: str  # one-line "field: iss=... gate=..." summary
    iss_state: dict = field(default_factory=dict)
    gate_state: dict = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"first divergence at instruction #{self.index} "
            f"(pc={self.pc:#06x}): {self.source}",
            f"  kind  : {self.kind}",
            f"  detail: {self.detail}",
            "  ISS state : " + _dump_line(self.iss_state),
            "  gate state: " + _dump_line(self.gate_state),
        ]
        return "\n".join(lines)


def _dump_line(state: dict) -> str:
    regs = " ".join(
        f"r{i}={state.get(f'r{i}', '?')}" for i in range(16)
    )
    flags = state.get("flags", "?")
    writes = state.get("writes", [])
    return f"{regs} flags[{flags}] writes={writes}"


@dataclass
class DivergenceReport:
    """A confirmed divergence plus everything needed to reproduce it:
    the engine, the generating seed, and a minimal shrunk reproducer."""

    divergence: Divergence
    engine: str
    program_name: str
    seed: int | None = None
    reproducer_asm: str | None = None
    original_units: int | None = None
    shrunk_units: int | None = None
    shrink_checks: int = 0

    def describe(self) -> str:
        lines = [
            f"DIVERGENCE: {self.program_name} on engine "
            f"{self.engine!r}"
            + (f" (seed {self.seed})" if self.seed is not None else ""),
            self.divergence.describe(),
        ]
        if self.shrunk_units is not None:
            lines.append(
                f"reproducer shrunk from {self.original_units} to "
                f"{self.shrunk_units} units "
                f"({self.shrink_checks} re-runs)"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON view for the service layer and CI artifacts."""
        return {
            "program": self.program_name,
            "engine": self.engine,
            "seed": self.seed,
            "kind": self.divergence.kind,
            "index": self.divergence.index,
            "pc": self.divergence.pc,
            "source": self.divergence.source,
            "detail": self.divergence.detail,
            "iss_state": self.divergence.iss_state,
            "gate_state": self.divergence.gate_state,
            "original_units": self.original_units,
            "shrunk_units": self.shrunk_units,
            "reproducer_asm": self.reproducer_asm,
        }


@dataclass
class CoexecResult:
    """Outcome of one lock-step run of one program on one engine."""

    program: str
    engine: str
    instructions: int = 0
    cycles: int = 0
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _source_for(program: Program, pc: int) -> str:
    text = program.source_map.get(pc)
    if text:
        return text
    text, _n = disassemble_at(program.words, pc)
    return text


def _iss_dump(iss: InstructionSetSimulator, writes: list) -> dict:
    state = {f"r{i}": _fmt(iss.state.regs[i]) for i in range(16)}
    state["flags"] = " ".join(
        f"{name}={iss.state.flag(bit)}" for bit, name in FLAG_BITS
    )
    state["writes"] = [(hex(a), hex(v)) for a, v in writes]
    return state


def _gate_dump(cpu: Ulp430, machine, writes: list) -> dict:
    regs = cpu.read_registers(machine)
    state = {
        f"r{i}": _fmt(value, xmask)
        for i, (value, xmask) in enumerate(regs)
    }
    sr_value, sr_xmask = regs[SR]
    state["flags"] = " ".join(
        f"{name}={'X' if (sr_xmask >> bit) & 1 else (sr_value >> bit) & 1}"
        for bit, name in FLAG_BITS
    )
    state["writes"] = [(hex(a), hex(v)) for a, v in writes]
    return state


def coexecute(
    cpu: Ulp430,
    program: Program,
    engine: str | None = None,
    port_in: int = 0,
    max_instructions: int = 50_000,
    machine=None,
) -> CoexecResult:
    """Run *program* lock-step on the ISS and the gate-level machine.

    Returns a :class:`CoexecResult`; ``result.divergence`` is ``None``
    when every retirement boundary agreed.  *machine* lets tests inject a
    pre-built (possibly sabotaged) machine; by default a fresh concrete
    machine is built for *engine*.  Programs must be concrete (inputs
    filled via :meth:`Program.with_inputs`) and halt via ``jmp $``.
    """
    from repro.sim.bitplane import default_engine

    engine_name = engine or default_engine()
    if machine is None:
        machine = cpu.make_machine(
            program, symbolic_inputs=False, port_in=port_in, engine=engine
        )

    iss = InstructionSetSimulator(program, port_in=port_in)
    iss.write_log = []
    result = CoexecResult(program=program.name, engine=engine_name)

    def diverge(kind, pc, detail, gate_writes, iss_writes) -> CoexecResult:
        result.divergence = Divergence(
            kind=kind,
            index=result.instructions,
            pc=pc,
            source=_source_for(program, pc),
            detail=detail,
            iss_state=_iss_dump(iss, iss_writes),
            gate_state=_gate_dump(cpu, machine, gate_writes),
        )
        result.cycles = machine.cycle
        return result

    # boundary 0: both sides out of reset, nothing retired yet
    mismatch = _compare_boundary(cpu, machine, iss)
    if mismatch is not None:
        return diverge(mismatch[0], iss.state.regs[PC], mismatch[1], [], [])

    while result.instructions < max_instructions:
        fetch_pc = iss.state.regs[PC]
        iss.write_log.clear()
        try:
            iss.step()
        except IssError as exc:
            raise CoexecError(
                f"ISS fault in {program.name} at instruction "
                f"#{result.instructions}: {exc}"
            ) from exc
        iss_writes = list(iss.write_log)

        if iss.halted:
            # the gate-level halt idiom is the same `jmp $`: the machine
            # must report halted() within one instruction's cycle budget
            for _ in range(MAX_CYCLES_PER_INSTRUCTION):
                machine.step()
                if cpu.halted(machine):
                    break
            else:
                return diverge(
                    "halt", fetch_pc,
                    "ISS halted but the gate-level machine did not reach "
                    "the halt idiom", [], iss_writes,
                )
            # final boundary: everything but the PC (the ISS steps past
            # the halt word; the gate loops on it)
            mismatch = _compare_boundary(
                cpu, machine, iss, check_pc=False
            )
            if mismatch is not None:
                return diverge(
                    mismatch[0], fetch_pc, mismatch[1], [], iss_writes
                )
            result.instructions += 1
            result.cycles = machine.cycle
            return result

        # step the gate to its next retirement boundary, collecting the
        # data-memory write stream on the way
        gate_writes: list[tuple[int, int]] = []
        retired = False
        for _ in range(MAX_CYCLES_PER_INSTRUCTION):
            machine.step()
            request = machine._request
            if request.we == 1:
                if not request.addr_known or request.din_xmask:
                    return diverge(
                        "x-state", fetch_pc,
                        f"gate memory write with unknown "
                        f"{'address' if not request.addr_known else 'data'}"
                        f" (addr={request.addr}, "
                        f"din={_fmt(request.din_value, request.din_xmask)})",
                        gate_writes, iss_writes,
                    )
                byte_addr = request.addr * 2
                if byte_addr >= PERIPHERAL_END:
                    gate_writes.append((byte_addr, request.din_value))
            elif request.we != 0:
                return diverge(
                    "x-state", fetch_pc,
                    "gate memory write-enable is X on a concrete run",
                    gate_writes, iss_writes,
                )
            if cpu.pc_next_unknown(machine):
                return diverge(
                    "x-state", fetch_pc,
                    "gate PC goes unknown on a concrete run",
                    gate_writes, iss_writes,
                )
            if cpu.halted(machine):
                return diverge(
                    "halt", fetch_pc,
                    "gate-level machine halted but the ISS did not",
                    gate_writes, iss_writes,
                )
            if cpu.read_state(machine) == S_FETCH:
                retired = True
                break
        if not retired:
            return diverge(
                "liveness", fetch_pc,
                f"gate-level FSM did not retire within "
                f"{MAX_CYCLES_PER_INSTRUCTION} cycles",
                gate_writes, iss_writes,
            )

        if gate_writes != iss_writes:
            return diverge(
                "memory", fetch_pc,
                f"write stream: iss={[(hex(a), hex(v)) for a, v in iss_writes]} "
                f"gate={[(hex(a), hex(v)) for a, v in gate_writes]}",
                gate_writes, iss_writes,
            )
        mismatch = _compare_boundary(cpu, machine, iss)
        if mismatch is not None:
            return diverge(
                mismatch[0], fetch_pc, mismatch[1], gate_writes, iss_writes
            )
        result.instructions += 1

    raise CoexecError(
        f"{program.name} did not halt within {max_instructions} "
        f"instructions (no divergence found)"
    )


def _compare_boundary(
    cpu: Ulp430, machine, iss: InstructionSetSimulator, check_pc: bool = True
) -> tuple[str, str] | None:
    """Diff the architectural registers at a retirement boundary.

    Returns ``(kind, detail)`` for the first mismatch, or ``None``.
    """
    gate_regs = cpu.read_registers(machine)
    for i, (value, xmask) in enumerate(gate_regs):
        if i == PC and not check_pc:
            continue
        if xmask:
            return (
                "x-state",
                f"r{i} has unknown bits on a concrete run "
                f"(value={value:#06x}, xmask={xmask:#06x})",
            )
        expected = iss.state.regs[i]
        if value != expected:
            if i == PC:
                return (
                    "pc",
                    f"pc: iss={_fmt(expected)} gate={_fmt(value)}",
                )
            if i == SR:
                for bit, name in FLAG_BITS:
                    iss_bit = (expected >> bit) & 1
                    gate_bit = (value >> bit) & 1
                    if iss_bit != gate_bit:
                        return (
                            "flag",
                            f"SR.{name}: iss={iss_bit} gate={gate_bit} "
                            f"(sr: iss={_fmt(expected)} gate={_fmt(value)})",
                        )
                return (
                    "register",
                    f"SR (non-flag bits): iss={_fmt(expected)} "
                    f"gate={_fmt(value)}",
                )
            return (
                "register",
                f"r{i}: iss={_fmt(expected)} gate={_fmt(value)}",
            )
    return None

"""Elaboration of the complete gate-level ULP processor.

The core is a multicycle MSP430-subset machine with the openMSP430 module
split the paper's figures use: ``frontend`` (fetch/decode FSM), ``exec_unit``
(ALU + register file + PC/SP/SR), ``mem_backbone`` (address muxing,
peripheral decode, data-in select), ``multiplier`` (memory-mapped 16x16
array multiplier), ``watchdog``, ``sfr`` (GPIO), ``clk_module`` and ``dbg``.

FSM states (3-bit register)::

    FETCH ──> DISPATCH ──(reg/CG operands)── exec ──> FETCH
                 │  \\──(jump)── PC update ──> FETCH
                 │──(x(Rn)/&abs)──> SRC_EXT ──> SRC_RD ...
                 │──(@Rn/@Rn+/#imm)──────────> SRC_RD ...
    SRC_RD ──(Ad=1)──> DST_EXT ──(RMW)──> DST_RD ──> FETCH
    CALL_PUSH pushes the return address and loads the PC.

Memory is synchronous: a read issued in cycle *t* is on the data-in bus in
cycle *t+1*, which is why DISPATCH consumes the word fetched during FETCH.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.program import Program
from repro.isa import memmap
from repro.isa.spec import SR_C, SR_N, SR_V, SR_Z
from repro.logic import X
from repro.netlist.builder import Bus, NetlistBuilder
from repro.netlist.core import Netlist
from repro.netlist.program import NetlistProgram
from repro.sim.evaluator import LevelizedEvaluator
from repro.sim.machine import Machine, MemoryPorts
from repro.sim.memory import TernaryMemory
from repro.sim.native import LaneTables, evaluator_or_fallback, start_build
from repro.cpu.datapath import (
    and_or_select,
    build_alu,
    build_array_multiplier,
    build_shifter,
)

MASK16 = 0xFFFF

S_FETCH, S_DISPATCH, S_SRC_EXT, S_SRC_RD = 0, 1, 2, 3
S_DST_EXT, S_DST_RD, S_CALL_PUSH = 4, 5, 6
#: width of the FSM state register
STATE_BITS = 3

STATE_NAMES = {
    S_FETCH: "FETCH",
    S_DISPATCH: "DISPATCH",
    S_SRC_EXT: "SRC_EXT",
    S_SRC_RD: "SRC_RD",
    S_DST_EXT: "DST_EXT",
    S_DST_RD: "DST_RD",
    S_CALL_PUSH: "CALL_PUSH",
}

HALT_WORD = 0x3FFF  # `jmp $` — unconditional jump with offset -1

#: the state-and-instruction-word bus while dispatching the halt idiom
_HALT_DISPATCH = S_DISPATCH | HALT_WORD << STATE_BITS


class UnresolvedPCError(Exception):
    """The program counter became X outside a forkable conditional jump.

    This happens for computed jumps through unconstrained (input-derived)
    pointers; the paper's benchmarks — and ours — do not contain them.
    """


class HaltBudgetError(RuntimeError):
    """A concrete run did not reach the halt idiom within its cycles."""


@dataclass
class CpuNets:
    """Net handles the wrapper and the analyses need after elaboration."""

    pc_q: Bus
    pc_d: list[int]
    sp_q: Bus
    sr_q: Bus
    state_q: Bus
    state_d: list[int]
    ir_q: Bus
    iw: Bus
    din_cpu: Bus
    port_in: Bus
    mem_addr_byte: Bus
    #: r4..r15 DFF banks (regfile[0] is r4)
    regfile: list[Bus]


def _declare_register(
    nb: NetlistBuilder, width: int, name: str, reset: int = 0
) -> Bus:
    return nb.register(width, name, reset_value=reset)


def build_ulp430(prefetch_kernel: bool = True) -> "Ulp430":
    """Elaborate the processor and return its wrapper.

    The default engine's kernel does not depend on the netlist, so its
    compile starts in the background while the CPU elaborates.  A
    process that will fork before the kernel is needed passes
    *prefetch_kernel* ``False``: the build thread would not survive the
    fork.
    """
    if prefetch_kernel:
        start_build()
    nb = NetlistBuilder("ulp430")

    # ------------------------------------------------------------------
    # Architectural and micro-architectural registers (forward-declared)
    # ------------------------------------------------------------------
    with nb.module("exec_unit"):
        pc = _declare_register(nb, 16, "pc", memmap.RESET_PC)
        sp = _declare_register(nb, 16, "sp", memmap.RESET_SP)
        sr = _declare_register(nb, 16, "sr", 0)
        srcv = _declare_register(nb, 16, "srcv", 0)
    with nb.module("frontend"):
        ir = _declare_register(nb, 16, "ir", 0)
        state = _declare_register(nb, STATE_BITS, "state", S_FETCH)
        mar = _declare_register(nb, 16, "mar", 0)

    # ------------------------------------------------------------------
    # External interfaces
    # ------------------------------------------------------------------
    with nb.module("mem_backbone"):
        mem_dout = nb.bus_input("mem_dout", 16)
        per_sel_q = _declare_register(nb, 1, "per_sel", 0)
        per_addr_q = _declare_register(nb, 8, "per_addr", 0)
    with nb.module("sfr"):
        port_in = nb.bus_input("port_in", 16)
        p1out = _declare_register(nb, 16, "p1out", 0)
    with nb.module("watchdog"):
        wdtctl = _declare_register(nb, 16, "wdtctl", 0)
        wdtcnt = _declare_register(nb, 8, "wdtcnt", 0)
    with nb.module("multiplier"):
        mpy_op1 = _declare_register(nb, 16, "mpy_op1", 0)
        mpy_op2 = _declare_register(nb, 16, "mpy_op2", 0)
        mult_go = _declare_register(nb, 1, "mult_go", 0)
        reslo = _declare_register(nb, 16, "reslo", 0)
        reshi = _declare_register(nb, 16, "reshi", 0)
    with nb.module("dbg"):
        dbg_ctl = _declare_register(nb, 16, "dbg_ctl", 0)
    with nb.module("clk_module"):
        prescaler = _declare_register(nb, 4, "prescaler", 0)
        # Free-running divider: constant background activity, like the
        # clock tree of the real design (visible in Fig 3.6 breakdowns).
        nb.connect_register(prescaler, nb.increment(prescaler))
        # Clock distribution tree: buffers re-driven every cycle by the
        # half-rate toggle bit.  Input-independent power floor shared by
        # symbolic bounds and silicon-style measurements alike.
        stage = prescaler[0]
        for buffer_index in range(160):
            stage = nb.buf(
                prescaler[0] if buffer_index % 8 == 0 else stage,
                name=f"clktree{buffer_index}",
            )

    # ------------------------------------------------------------------
    # Peripheral readback and the CPU data-in bus
    # ------------------------------------------------------------------
    def word_code(byte_addr: int) -> int:
        return (byte_addr >> 1) & 0xFF

    with nb.module("mem_backbone"):
        readback_map = [
            (memmap.P1IN, port_in),
            (memmap.P1OUT, p1out),
            (memmap.WDTCTL, wdtctl),
            (memmap.WDTCNT, wdtcnt + [nb.const0()] * 8),
            (memmap.MPY, mpy_op1),
            (memmap.OP2, mpy_op2),
            (memmap.RESLO, reslo),
            (memmap.RESHI, reshi),
            (memmap.DBG_CTL, dbg_ctl),
        ]
        selects = [
            (nb.eq_const(per_addr_q, word_code(addr)), bus)
            for addr, bus in readback_map
        ]
        per_readback = and_or_select(nb, selects)
        din_cpu = nb.bus_mux(per_sel_q[0], mem_dout, per_readback)

    # ------------------------------------------------------------------
    # Frontend: current instruction word and field decode
    # ------------------------------------------------------------------
    with nb.module("frontend"):
        st = nb.decoder(state)  # 8 one-hot state lines
        in_fetch, in_dispatch = st[S_FETCH], st[S_DISPATCH]
        in_src_ext, in_src_rd = st[S_SRC_EXT], st[S_SRC_RD]
        in_dst_ext, in_dst_rd = st[S_DST_EXT], st[S_DST_RD]
        in_call_push = st[S_CALL_PUSH]

        iw = nb.bus_mux(in_dispatch, ir, din_cpu)
        nb.connect_register(ir, nb.bus_mux(in_dispatch, ir, din_cpu))

        src_field = iw[8:12]
        dst_field = iw[0:4]
        as_mode = iw[4:6]
        ad_bit = iw[7]
        opcode = iw[12:16]
        opcode2 = iw[7:10]
        cond = iw[10:13]

        fmt_j = nb.and_n([nb.not_(iw[15]), nb.not_(iw[14]), iw[13]])
        fmt_ii = nb.and_n(
            [nb.not_(iw[15]), nb.not_(iw[14]), nb.not_(iw[13]), iw[12],
             nb.not_(iw[11]), nb.not_(iw[10])]
        )
        fmt_i = nb.or_(iw[15], iw[14])
        fmt_op = nb.or_(fmt_i, fmt_ii)

        # Format I carries the source register in bits [11:8]; Format II
        # carries its single operand register in bits [3:0].
        op_field = nb.bus_mux(fmt_ii, src_field, dst_field)
        src_is_cg2 = nb.eq_const(op_field, 3)
        src_is_sr = nb.eq_const(op_field, 2)
        src_is_pc = nb.eq_const(op_field, 0)
        src_is_sp = nb.eq_const(op_field, 1)
        as_0 = nb.eq_const(as_mode, 0)
        as_1 = nb.eq_const(as_mode, 1)
        as_2 = nb.eq_const(as_mode, 2)
        as_3 = nb.eq_const(as_mode, 3)

        is_cg = nb.and_(
            fmt_op,
            nb.or_(src_is_cg2, nb.and_(src_is_sr, nb.or_(as_2, as_3))),
        )
        imm_mode = nb.and_n([fmt_op, as_3, src_is_pc])
        idx_mode = nb.and_n([fmt_op, as_1, nb.not_(is_cg)])
        ind_mode = nb.and_n(
            [fmt_op, nb.or_(as_2, as_3), nb.not_(is_cg), nb.not_(imm_mode)]
        )
        reg_mode = nb.and_n([fmt_op, as_0, nb.not_(is_cg)])
        operand_ready = nb.or_(is_cg, reg_mode)

        is_push = nb.and_n([fmt_ii, opcode2[2], nb.not_(opcode2[1]), nb.not_(opcode2[0])])
        is_call = nb.and_n([fmt_ii, opcode2[2], nb.not_(opcode2[1]), opcode2[0]])
        is_shift_op = nb.and_(fmt_ii, nb.not_(opcode2[2]))

        is_mov = nb.and_(fmt_i, nb.eq_const(opcode, 0x4))
        is_cmp = nb.and_(fmt_i, nb.eq_const(opcode, 0x9))
        is_bit = nb.and_(fmt_i, nb.eq_const(opcode, 0xB))
        no_writeback = nb.or_(is_cmp, is_bit)

        _dst_is_mem = nb.and_(fmt_i, ad_bit)  # reserved decode line

        # Constant generator value
        cg_all_ones = nb.and_(src_is_cg2, as_3)
        cg_bit0 = nb.and_(src_is_cg2, as_1)
        cg_bit1 = nb.and_(src_is_cg2, as_2)
        cg_bit2 = nb.and_(src_is_sr, as_2)
        cg_bit3 = nb.and_(src_is_sr, as_3)
        cg_value = [
            nb.or_(cg_all_ones, cg_bit0),
            nb.or_(cg_all_ones, cg_bit1),
            nb.or_(cg_all_ones, cg_bit2),
            nb.or_(cg_all_ones, cg_bit3),
        ] + [cg_all_ones] * 12

    # ------------------------------------------------------------------
    # Execution unit: register file read ports, ALU, shifter
    # ------------------------------------------------------------------
    with nb.module("exec_unit"):
        with nb.module("regfile"):
            banks = [
                _declare_register(nb, 16, f"r{n}") for n in range(4, 16)
            ]
            zero_bus = nb.bus_const(0, 16)
            choices = [pc, sp, sr, zero_bus] + banks
            reg_a = nb.bus_mux_tree(op_field, choices)
            reg_b = nb.bus_mux_tree(dst_field, choices)

        src_operand_now = nb.bus_mux(is_cg, reg_a, cg_value)

        with nb.module("alu"):
            alu_src = and_or_select(
                nb,
                [
                    (in_dispatch, src_operand_now),
                    (in_src_rd, din_cpu),
                    (nb.or_(in_dst_rd, in_dst_ext), srcv),
                ],
            )
            alu_dst = nb.bus_mux(in_dst_rd, reg_b, din_cpu)
            alu = build_alu(nb, opcode, alu_src, alu_dst, sr[SR_C])

        with nb.module("shifter"):
            shift_src = nb.bus_mux(in_dispatch, din_cpu, src_operand_now)
            shifter = build_shifter(nb, opcode2, shift_src, sr[SR_C])

    # ------------------------------------------------------------------
    # Frontend: next-state logic and jump resolution
    # ------------------------------------------------------------------
    with nb.module("frontend"):
        flag_c, flag_z = sr[SR_C], sr[SR_Z]
        flag_n, flag_v = sr[SR_N], sr[SR_V]
        cond_lines = nb.decoder(cond)
        n_xor_v = nb.xor(flag_n, flag_v)
        taken = nb.or_n(
            [
                nb.and_(cond_lines[0], nb.not_(flag_z)),
                nb.and_(cond_lines[1], flag_z),
                nb.and_(cond_lines[2], nb.not_(flag_c)),
                nb.and_(cond_lines[3], flag_c),
                nb.and_(cond_lines[4], flag_n),
                nb.and_(cond_lines[5], nb.not_(n_xor_v)),
                nb.and_(cond_lines[6], n_xor_v),
                cond_lines[7],
            ]
        )

        goto_dispatch = in_fetch
        goto_src_ext = nb.and_(in_dispatch, idx_mode)
        goto_src_rd = nb.or_(
            nb.and_(in_dispatch, nb.or_(imm_mode, ind_mode)), in_src_ext
        )
        exec_entry = nb.or_(nb.and_(in_dispatch, operand_ready), in_src_rd)
        goto_dst_ext = nb.and_n([exec_entry, fmt_i, ad_bit])
        goto_dst_rd = nb.and_(in_dst_ext, nb.not_(is_mov))
        goto_call_push = nb.and_(exec_entry, is_call)
        state_next = [
            nb.or_n([goto_dispatch, goto_src_rd, goto_dst_rd]),
            nb.or_n([goto_src_ext, goto_src_rd, goto_call_push]),
            nb.or_n([goto_dst_ext, goto_dst_rd, goto_call_push]),
        ]
        nb.connect_register(state, state_next)

    # ------------------------------------------------------------------
    # Address generation and memory control (mem_backbone)
    # ------------------------------------------------------------------
    with nb.module("mem_backbone"):
        pc_plus_2 = nb.increment(pc, 2)
        sp_minus_2 = nb.increment(sp, 0xFFFE)
        sp_plus_2 = nb.increment(sp, 2)
        reg_a_plus_2 = nb.increment(reg_a, 2)

        # Jump target: PC + 2*sign-extended(offset)
        offset_times_2 = [nb.const0()] + list(iw[0:10]) + [iw[9]] * 5
        jump_target, _ = nb.ripple_add(pc, offset_times_2)

        ea_base_src = nb.bus_mux(src_is_sr, reg_a, zero_bus)
        ea_base_dst = nb.bus_mux(nb.eq_const(dst_field, 2), reg_b, zero_bus)
        ea_base = nb.bus_mux(in_dst_ext, ea_base_src, ea_base_dst)
        effective_addr, _ = nb.ripple_add(ea_base, din_cpu)

        dispatch_push = nb.and_n([in_dispatch, operand_ready, is_push])
        _dispatch_rd_pc = nb.or_n(  # reserved decode line
            [
                nb.and_(in_dispatch, idx_mode),
                nb.and_(in_dispatch, imm_mode),
                nb.and_n([in_dispatch, operand_ready, fmt_i, ad_bit]),
            ]
        )
        src_rd_push = nb.and_(in_src_rd, is_push)
        src_rd_shift_wb = nb.and_n(
            [in_src_rd, is_shift_op, nb.not_(nb.and_(fmt_ii, as_0))]
        )
        src_rd_dst_ext = nb.and_n([in_src_rd, fmt_i, ad_bit])

        dispatch_addr_ind = nb.and_(in_dispatch, ind_mode)
        dispatch_addr_default = nb.and_(
            in_dispatch, nb.nor_n([ind_mode, dispatch_push])
        )
        mem_addr_byte = and_or_select(
            nb,
            [
                (in_fetch, pc),
                (dispatch_addr_ind, reg_a),
                (dispatch_push, sp_minus_2),
                (dispatch_addr_default, pc),
                (in_src_ext, effective_addr),
                (src_rd_push, sp_minus_2),
                (src_rd_shift_wb, mar),
                (nb.and_(in_src_rd, nb.nor_n([src_rd_push, src_rd_shift_wb])), pc),
                (in_dst_ext, effective_addr),
                (in_dst_rd, mar),
                (in_call_push, sp_minus_2),
            ],
        )

        mem_en = nb.or_n(
            [
                in_fetch,
                nb.and_(in_dispatch, nb.or_n([idx_mode, imm_mode, ind_mode])),
                nb.and_n([in_dispatch, operand_ready, fmt_i, ad_bit]),
                in_src_ext,
                src_rd_dst_ext,
                nb.and_(in_dst_ext, nb.not_(is_mov)),
            ]
        )
        mem_we = nb.or_n(
            [
                dispatch_push,
                src_rd_push,
                src_rd_shift_wb,
                nb.and_(in_dst_ext, is_mov),
                nb.and_(in_dst_rd, nb.not_(no_writeback)),
                in_call_push,
            ]
        )
        mem_din = and_or_select(
            nb,
            [
                (dispatch_push, src_operand_now),
                (src_rd_push, din_cpu),
                (src_rd_shift_wb, shifter.result),
                (nb.and_(in_dst_ext, is_mov), srcv),
                (nb.and_(in_dst_rd, nb.not_(no_writeback)), alu.result),
                (in_call_push, pc),
            ],
        )

        is_per = nb.nor_n(mem_addr_byte[9:16])
        nb.connect_register(per_sel_q, [nb.and_(is_per, mem_en)])
        per_addr_now = mem_addr_byte[1:9]
        nb.connect_register(
            per_addr_q, nb.bus_mux(mem_en, per_addr_q, per_addr_now)
        )

    # ------------------------------------------------------------------
    # Register write-back, PC/SP/SR updates
    # ------------------------------------------------------------------
    with nb.module("exec_unit"):
        exec_alu = nb.or_n(
            [
                nb.and_n([in_dispatch, operand_ready, fmt_i, nb.not_(ad_bit)]),
                nb.and_n([in_src_rd, fmt_i, nb.not_(ad_bit)]),
            ]
        )
        exec_shift_reg = nb.and_n(
            [in_dispatch, operand_ready, is_shift_op]
        )
        reg_write_value = nb.bus_mux(exec_shift_reg, alu.result, shifter.result)
        reg_write_exec = nb.and_(
            nb.or_(exec_alu, exec_shift_reg), nb.not_(no_writeback)
        )
        autoinc = nb.and_n(
            [
                in_dispatch,
                fmt_op,
                as_3,
                nb.not_(is_cg),
                nb.not_(src_is_pc),
            ]
        )
        reg_write_en = nb.or_(reg_write_exec, autoinc)
        reg_write_index = nb.bus_mux(autoinc, dst_field, op_field)
        reg_write_data = nb.bus_mux(autoinc, reg_write_value, reg_a_plus_2)

        with nb.module("regfile"):
            write_lines = nb.decoder(reg_write_index)
            for offset, bank in enumerate(banks):
                enable = nb.and_(reg_write_en, write_lines[offset + 4])
                nb.register_with_enable(bank, reg_write_data, enable)

        write_pc_exec = nb.and_(reg_write_exec, nb.eq_const(reg_write_index, 0))
        write_sp_port = nb.and_(reg_write_en, nb.eq_const(reg_write_index, 1))
        write_sr_port = nb.and_(reg_write_exec, nb.eq_const(reg_write_index, 2))

        # --- PC ---
        jump_pc = nb.bus_mux(taken, pc, jump_target)
        # DISPATCH consumes a word at @PC for: #imm reads, x(Rn)/&abs
        # extension reads, and dst-extension reads after a reg/CG source.
        dispatch_pc_advance = nb.and_(
            in_dispatch,
            nb.or_n(
                [
                    imm_mode,
                    idx_mode,
                    nb.and_n([operand_ready, fmt_i, ad_bit]),
                ]
            ),
        )
        dispatch_jump = nb.and_(in_dispatch, fmt_j)
        pc_selects = [
            (in_fetch, pc_plus_2),
            (dispatch_jump, jump_pc),
            (dispatch_pc_advance, pc_plus_2),
            (src_rd_dst_ext, pc_plus_2),
            (write_pc_exec, reg_write_data),
            (in_call_push, srcv),
        ]
        hold_pc = nb.nor_n([sel for sel, _bus in pc_selects])
        pc_next = and_or_select(nb, pc_selects + [(hold_pc, pc)])
        nb.connect_register(pc, pc_next)

        # --- SP ---
        push_now = nb.or_n([dispatch_push, src_rd_push, in_call_push])
        sp_autoinc = nb.and_(autoinc, src_is_sp)
        sp_next = and_or_select(
            nb,
            [
                (push_now, sp_minus_2),
                (sp_autoinc, sp_plus_2),
                (write_sp_port_only := nb.and_(
                    write_sp_port, nb.not_(nb.or_(push_now, sp_autoinc))
                ), reg_write_data),
                (
                    nb.nor_n([push_now, sp_autoinc, write_sp_port_only]),
                    sp,
                ),
            ],
        )
        nb.connect_register(sp, sp_next)

        # --- SR (flags) ---
        exec_cycle = nb.or_n(
            [
                exec_alu,
                exec_shift_reg,
                in_dst_rd,
                nb.and_(in_src_rd, src_rd_shift_wb),
            ]
        )
        use_shift_flags = nb.or_(exec_shift_reg, src_rd_shift_wb)
        sets_flags = nb.mux(use_shift_flags, alu.sets_flags, shifter.sets_flags)
        flag_en = nb.and_(exec_cycle, sets_flags)
        new_c = nb.mux(use_shift_flags, alu.c, shifter.c)
        new_z = nb.mux(use_shift_flags, alu.z, shifter.z)
        new_n = nb.mux(use_shift_flags, alu.n, shifter.n)
        new_v = nb.mux(use_shift_flags, alu.v, shifter.v)
        sr_next: Bus = []
        flag_bits = {SR_C: new_c, SR_Z: new_z, SR_N: new_n, SR_V: new_v}
        for bit in range(16):
            if bit in flag_bits:
                flagged = nb.mux(flag_en, sr[bit], flag_bits[bit])
            else:
                flagged = sr[bit]
            sr_next.append(nb.mux(write_sr_port, flagged, reg_write_data[bit]))
        nb.connect_register(sr, sr_next)

        # --- SRCV / MAR ---
        srcv_next = and_or_select(
            nb,
            [
                (nb.and_(in_dispatch, operand_ready), src_operand_now),
                (in_src_rd, din_cpu),
                (
                    nb.nor_n([nb.and_(in_dispatch, operand_ready), in_src_rd]),
                    srcv,
                ),
            ],
        )
        nb.connect_register(srcv, srcv_next)

    with nb.module("frontend"):
        mar_capture = nb.or_n(
            [
                nb.and_(in_dispatch, ind_mode),
                in_src_ext,
                in_dst_ext,
            ]
        )
        mar_value = nb.bus_mux(
            nb.and_(in_dispatch, ind_mode),
            effective_addr,
            reg_a,
        )
        nb.connect_register(mar, nb.bus_mux(mar_capture, mar, mar_value))

    # ------------------------------------------------------------------
    # Peripherals: write decode and internals
    # ------------------------------------------------------------------
    with nb.module("mem_backbone"):
        per_we = nb.and_(mem_we, is_per)
        per_addr_now_wr = mem_addr_byte[1:9]

        def write_strobe(byte_addr: int) -> int:
            return nb.and_(per_we, nb.eq_const(per_addr_now_wr, word_code(byte_addr)))

        wr_p1out = write_strobe(memmap.P1OUT)
        wr_wdtctl = write_strobe(memmap.WDTCTL)
        wr_mpy = write_strobe(memmap.MPY)
        wr_op2 = write_strobe(memmap.OP2)
        wr_dbg = write_strobe(memmap.DBG_CTL)

    with nb.module("sfr"):
        nb.register_with_enable(p1out, mem_din, wr_p1out)

    with nb.module("watchdog"):
        nb.register_with_enable(wdtctl, mem_din, wr_wdtctl)
        wdt_hold = nb.eq_const(wdtctl, memmap.WDT_HOLD_KEY)
        wdtcnt_next = nb.increment(wdtcnt)
        nb.connect_register(
            wdtcnt, nb.bus_mux(wdt_hold, wdtcnt_next, wdtcnt)
        )

    with nb.module("dbg"):
        nb.register_with_enable(dbg_ctl, mem_din, wr_dbg)

    with nb.module("multiplier"):
        nb.register_with_enable(mpy_op1, mem_din, wr_mpy)
        nb.register_with_enable(mpy_op2, mem_din, wr_op2)
        nb.connect_register(mult_go, [wr_op2])
        product = build_array_multiplier(nb, mpy_op1, mpy_op2)
        nb.register_with_enable(reslo, product[:16], mult_go[0])
        nb.register_with_enable(reshi, product[16:], mult_go[0])

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    word_addr = mem_addr_byte[1:16]
    nb.bus_output("mem_addr", word_addr)
    nb.bus_output("mem_din", mem_din)
    nb.output("mem_en", mem_en)
    nb.output("mem_we", mem_we)
    nb.bus_output("pc", pc)

    netlist = nb.finish()
    ports = MemoryPorts(
        addr=word_addr, din=mem_din, dout=mem_dout, we=mem_we, en=mem_en
    )
    nets = CpuNets(
        pc_q=pc,
        pc_d=[netlist.gates[q].inputs[0] for q in pc],
        sp_q=sp,
        sr_q=sr,
        state_q=state,
        state_d=[netlist.gates[q].inputs[0] for q in state],
        ir_q=ir,
        iw=iw,
        din_cpu=din_cpu,
        port_in=port_in,
        mem_addr_byte=mem_addr_byte,
        regfile=banks,
    )
    return Ulp430(netlist, ports, nets)


class Ulp430(object):
    """The elaborated processor plus the hooks used by the analyses."""

    def __init__(self, netlist: Netlist, ports: MemoryPorts, nets: CpuNets):
        self.netlist = netlist
        self.ports = ports
        self.nets = nets
        #: the bus the halt and fork probes read: the FSM state with the
        #: instruction word above it
        self._state_iw = [*nets.state_q, *nets.iw]
        #: the uint8 reference evaluator (the oracle), built on first use
        self._reference_evaluator = None
        #: the gate schedule ``(NetlistProgram, LaneTables)``, built on
        #: first use (see :meth:`gate_schedule`)
        self._gate_schedule = None
        #: the native-kernel evaluator (or the reference one after a
        #: compiler-less fallback), built on first use and then shared by
        #: every machine/batch built from this CPU
        self._native_evaluator = None

    # ------------------------------------------------------------------
    # Machine construction
    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> LevelizedEvaluator:
        """The uint8 reference evaluator (the oracle)."""
        if self._reference_evaluator is None:
            self._reference_evaluator = LevelizedEvaluator(self.netlist)
        return self._reference_evaluator

    def gate_schedule(self) -> tuple[NetlistProgram, LaneTables]:
        """The netlist's packed bit order and lane-sliced gate schedule,
        built once and handed to the native evaluator.

        Pure numpy tables of this netlist, with no kernel state: a
        process that forks job workers builds them before it forks, and
        every worker inherits them.  ``LaneTables`` points into its own
        arrays, which a fork keeps valid and pickling would not.
        """
        if self._gate_schedule is None:
            program = NetlistProgram(self.netlist)
            self._gate_schedule = (program, LaneTables(program))
        return self._gate_schedule

    def evaluator_for(self, engine: str | None = None):
        """The shared evaluator for *engine* (``None``: native, or this
        CPU's reference evaluator when the kernel cannot be built)."""
        from repro.sim.bitplane import ENGINES, default_engine

        engine = engine or default_engine()
        if engine == "reference":
            return self.evaluator
        if engine == "native":
            if self._native_evaluator is None:
                # without a compiler, fall back on this CPU's own
                # reference evaluator rather than building a second one
                self._native_evaluator = evaluator_or_fallback(
                    self.netlist, lambda: self.evaluator, self.gate_schedule()
                )
            return self._native_evaluator
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )

    def make_machine(
        self,
        program: Program,
        symbolic_inputs: bool = True,
        port_in: int | None = None,
        reset_cycles: int = 2,
        trace=None,
        engine: str | None = None,
    ) -> Machine:
        """Load *program* and return a reset machine ready to step.

        With ``symbolic_inputs=True`` the program's ``.input`` regions stay
        X and the GPIO input pins are forced to X (Algorithm 1's setting);
        otherwise the regions must have been filled via
        ``program.with_inputs(...)`` and *port_in* gives the pin values.
        *engine* picks the simulation engine (native or reference);
        ``None`` is native, or the reference engine when the kernel
        cannot be built.
        """
        memory = TernaryMemory(n_words=1 << 15)
        memory.load_program(program.words)
        machine = Machine(
            self.netlist, self.ports, self.evaluator_for(engine), memory
        )
        for position, net in enumerate(self.nets.port_in):
            if symbolic_inputs or port_in is None:
                machine.forced_inputs[net] = X
            else:
                machine.forced_inputs[net] = (port_in >> position) & 1
        machine.reset_sequence(reset_cycles, trace=trace)
        return machine

    # ------------------------------------------------------------------
    # Introspection used by the explorer and the COI analysis
    # ------------------------------------------------------------------
    def read_state(self, machine: Machine) -> int | None:
        value, xmask = machine.peek_bus(self.nets.state_q)
        return None if xmask else value

    def annotate(self, trace) -> list[dict]:
        """The COI annotations of every record of *trace*: FSM state
        name, PC and instruction word (``None`` when unknown).

        Decoded from the trace's packed value matrix, one bit gather per
        bus, since the records store no annotations.
        """
        planes = trace.values_matrix(packed=True)
        word, word_x = trace.bit_order.read_bus(planes, self._state_iw)
        pc, _ = trace.bit_order.read_bus(planes, self.nets.pc_q)
        return [
            _annotation(*row)
            for row in zip(word.tolist(), word_x.tolist(), pc.tolist())
        ]

    # The probes below take a Machine or a BatchMachine.  A batch's
    # peek_bus returns uint64 columns of its live lanes, so the same
    # expressions give one answer per lane: boolean lane masks, or lists
    # with one entry per lane.

    def in_dispatch(self, machine: Machine):
        """Is the FSM in DISPATCH?  A lane mask on a batch."""
        state, state_x = machine.peek_bus(self.nets.state_q)
        return (state_x == 0) & (state == S_DISPATCH)

    def halted(self, machine: Machine):
        """True when the CPU is dispatching the ``jmp $`` halt idiom; a
        lane mask on a batch."""
        word, word_x = machine.peek_bus(self._state_iw)
        return (word_x == 0) & (word == _HALT_DISPATCH)

    def batch_stops(self) -> list[tuple[list[int], int | None]]:
        """The bus predicates a multi-cycle batch step ends on, as
        :class:`~repro.sim.batch.BatchMachine` takes them: a lane
        dispatches the halt idiom (:meth:`halted`), or its next PC has an
        X (:meth:`pc_next_unknown`)."""
        return [(self._state_iw, _HALT_DISPATCH), (self.nets.pc_d, None)]

    def pc_next_unknown(self, machine: Machine):
        """Will the PC load an X at the next clock edge?  A lane mask on
        a batch.

        Reads the PC D-inputs as a bus, so packed lanes answer from their
        plane words (a batch: its probe columns) without unpacking a row.
        """
        _value, xmask = machine.peek_bus(self.nets.pc_d)
        return xmask != 0

    def flag_dff_for(self, bit: int) -> int:
        return self.nets.sr_q[bit]

    def read_registers(self, machine: Machine) -> list[tuple[int, int]]:
        """All 16 architectural registers as ``(value, xmask)`` pairs."""
        buses = [self.nets.pc_q, self.nets.sp_q, self.nets.sr_q]
        values = [machine.peek_bus(bus) for bus in buses]
        values.append((0, 0))  # r3: the storage-less constant generator
        values.extend(machine.peek_bus(bank) for bank in self.nets.regfile)
        return values

    def run_to_halt(
        self,
        machine: Machine,
        max_cycles: int = 100_000,
        trace=None,
    ) -> int:
        """Step a concrete machine until the halt idiom; returns cycles run.

        For symbolic machines use :class:`repro.core.activity` instead —
        this helper raises :class:`UnresolvedPCError` on an unknown
        program counter and :class:`HaltBudgetError` after *max_cycles*.
        """
        for _ in range(max_cycles):
            machine.step(trace=trace)
            if self.halted(machine):
                return machine.cycle
            if self.pc_next_unknown(machine):
                raise UnresolvedPCError(
                    "concrete run reached an unknown PC; did you forget "
                    "Program.with_inputs()?"
                )
        raise HaltBudgetError(f"no halt within {max_cycles} cycles")

    def branch_fork_assignments(self, machine: Machine):
        """Flag concretizations that resolve an X conditional jump.

        Returns one ``{sr_dff_net: value}`` dict per execution path.  The
        machine must be mid-DISPATCH of a conditional jump whose condition
        evaluated to X; raises :class:`UnresolvedPCError` otherwise.  On a
        batch: ``{lane row: assignments}`` for every lane whose next PC
        is X.
        """
        word, word_x = machine.peek_bus(self._state_iw)
        _sr, sr_x = machine.peek_bus(self.nets.sr_q)
        if not isinstance(word, np.ndarray):
            return self._fork_assignments(word, word_x, sr_x)
        rows = self.pc_next_unknown(machine).nonzero()[0]
        columns = [column[rows].tolist() for column in (word, word_x, sr_x)]
        return {
            row: self._fork_assignments(*lane)
            for row, *lane in zip(rows.tolist(), *columns)
        }

    def _fork_assignments(
        self, word: int, word_x: int, sr_x: int
    ) -> list[dict[int, int]]:
        state_mask = (1 << STATE_BITS) - 1
        if word_x & state_mask or word & state_mask != S_DISPATCH:
            raise UnresolvedPCError(
                "PC became unknown outside instruction dispatch "
                "(computed jump through unconstrained data?)"
            )
        iw, iw_x = word >> STATE_BITS, word_x >> STATE_BITS
        if iw_x or (iw >> 13) != 0b001:
            raise UnresolvedPCError(
                f"PC became unknown while dispatching non-jump word "
                f"{None if iw_x else hex(iw)}"
            )
        cond = (iw >> 10) & 0b111
        needed_bits = {
            0b000: [SR_Z], 0b001: [SR_Z],
            0b010: [SR_C], 0b011: [SR_C],
            0b100: [SR_N],
            0b101: [SR_N, SR_V], 0b110: [SR_N, SR_V],
        }.get(cond, [])
        unknown = [bit for bit in needed_bits if (sr_x >> bit) & 1]
        if not unknown:
            raise UnresolvedPCError(
                "conditional jump has concrete flags yet PC is X"
            )
        assignments: list[dict[int, int]] = []
        for pattern in range(1 << len(unknown)):
            assignments.append(
                {
                    self.nets.sr_q[bit]: (pattern >> i) & 1
                    for i, bit in enumerate(unknown)
                }
            )
        return assignments


def _annotation(word: int, word_x: int, pc: int) -> dict:
    """Annotations from the state-and-instruction-word bus."""
    state_mask = (1 << STATE_BITS) - 1
    iw_x = word_x >> STATE_BITS
    return {
        "state": "X" if word_x & state_mask
        else STATE_NAMES.get(word & state_mask, "X"),
        "pc": pc,
        "iw": None if iw_x else word >> STATE_BITS,
    }

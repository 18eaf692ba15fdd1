"""Functional (architectural) simulator for the MIPS-like ISA.

Executes :class:`~repro.isa.Program` objects instruction by instruction with
exact architectural semantics and optionally records a dynamic trace with
oracle memory-dependence annotations (see :mod:`repro.kernel.trace`).

The timing simulator never re-executes semantics; it consumes the trace this
CPU produces, which is the standard trace-driven simulation split (DESIGN.md
Section 3).
"""

from __future__ import annotations

from typing import List, Optional

from ..isa import Instruction, Opcode, Program, STACK_TOP
from .memory import SparseMemory
from .trace import MAX_TRACE_INSTRUCTIONS, TraceRecorder
from .tracestore import ColumnarTraceRecorder, PackedTrace

WORD_MASK = 0xFFFFFFFF


class ExecutionError(Exception):
    """Raised for runaway programs or invalid execution states."""


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as two's-complement signed."""
    value &= WORD_MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def to_unsigned(value: int) -> int:
    return value & WORD_MASK


def sign_extend(value: int, size: int) -> int:
    """Sign-extend the low ``size`` bytes of ``value`` to 32 bits."""
    bits = 8 * size
    sign = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return to_unsigned(value - (1 << bits)) if value & sign else value


_sign_extend = sign_extend


def alu_result(op: Opcode, rs: int, rt: int, imm: int) -> int:
    """Architectural result of an ALU opcode on 32-bit operand values.

    Pure function shared by :class:`FunctionalCpu` and the timing
    simulator's architectural-state tracker, so both compute results from
    the same semantics.  The result is NOT masked to 32 bits; register
    writes apply ``WORD_MASK``.
    """
    if op in (Opcode.ADD, Opcode.FADD):
        return rs + rt
    if op in (Opcode.SUB, Opcode.FSUB):
        return rs - rt
    if op is Opcode.AND:
        return rs & rt
    if op is Opcode.OR:
        return rs | rt
    if op is Opcode.XOR:
        return rs ^ rt
    if op is Opcode.NOR:
        return ~(rs | rt)
    if op is Opcode.SLT:
        return int(to_signed(rs) < to_signed(rt))
    if op is Opcode.SLTU:
        return int(rs < rt)
    if op is Opcode.SLLV:
        return rs << (rt & 0x1F)
    if op is Opcode.SRLV:
        return rs >> (rt & 0x1F)
    if op is Opcode.SRAV:
        return to_signed(rs) >> (rt & 0x1F)
    if op in (Opcode.MUL, Opcode.FMUL):
        return to_signed(rs) * to_signed(rt)
    if op is Opcode.MULH:
        return (to_signed(rs) * to_signed(rt)) >> 32
    if op in (Opcode.DIV, Opcode.FDIV):
        divisor = to_signed(rt)
        return 0 if divisor == 0 else int(to_signed(rs) / divisor)
    if op is Opcode.REM:
        divisor = to_signed(rt)
        return 0 if divisor == 0 else to_signed(rs) - divisor * int(
            to_signed(rs) / divisor)
    if op is Opcode.ADDI:
        return rs + imm
    if op is Opcode.ANDI:
        return rs & (imm & 0xFFFF)
    if op is Opcode.ORI:
        return rs | (imm & 0xFFFF)
    if op is Opcode.XORI:
        return rs ^ (imm & 0xFFFF)
    if op is Opcode.SLTI:
        return int(to_signed(rs) < imm)
    if op is Opcode.SLTIU:
        return int(rs < (imm & WORD_MASK))
    if op is Opcode.LUI:
        return (imm & 0xFFFF) << 16
    if op is Opcode.SLL:
        return rs << imm
    if op is Opcode.SRL:
        return rs >> imm
    if op is Opcode.SRA:
        return to_signed(rs) >> imm
    raise ExecutionError("unimplemented opcode %s" % op.name)


class FunctionalCpu:
    """Architectural interpreter with optional trace recording."""

    def __init__(self, program: Program):
        self.program = program
        self.memory = SparseMemory()
        self.memory.load_segment(program.data_base, program.data)
        self.regs: List[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0

    # -- register helpers ----------------------------------------------------

    def read_reg(self, num: int) -> int:
        return self.regs[num]

    def write_reg(self, num: int, value: int) -> None:
        if num != 0:
            self.regs[num] = value & WORD_MASK

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions: int = MAX_TRACE_INSTRUCTIONS,
            recorder: Optional[TraceRecorder] = None) -> int:
        """Run until HALT or the instruction cap; returns instructions run."""
        while not self.halted:
            if self.instruction_count >= max_instructions:
                raise ExecutionError(
                    "instruction cap %d reached at pc=0x%x"
                    % (max_instructions, self.pc))
            self.step(recorder)
        return self.instruction_count

    def run_trace(self, max_instructions: int = MAX_TRACE_INSTRUCTIONS
                  ) -> PackedTrace:
        """Run to completion and return the packed dynamic trace."""
        recorder = ColumnarTraceRecorder(self.program)
        self.run(max_instructions=max_instructions, recorder=recorder)
        return recorder.finish()

    def step(self, recorder: Optional[TraceRecorder] = None) -> None:
        """Execute one instruction."""
        instr = self.program.instruction_at(self.pc)
        pc = self.pc
        next_pc = pc + 4
        taken = False
        mem_addr = mem_size = value = None
        silent = False
        op = instr.op
        regs = self.regs

        if op is Opcode.HALT:
            self.halted = True
        elif op is Opcode.NOP:
            pass
        elif instr.is_load:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            raw = self.memory.read(mem_addr, mem_size)
            value = raw
            if op in (Opcode.LH, Opcode.LB):
                raw = _sign_extend(raw, mem_size)
            self.write_reg(instr.rd, raw)
        elif instr.is_store:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            value = regs[instr.rt] & ((1 << (8 * mem_size)) - 1)
            silent = self.memory.read(mem_addr, mem_size) == value
            self.memory.write(mem_addr, value, mem_size)
        elif instr.is_cond_branch:
            taken = self._branch_taken(instr)
            if taken:
                next_pc = instr.target
        elif op is Opcode.J:
            taken = True
            next_pc = instr.target
        elif op is Opcode.JAL:
            taken = True
            self.write_reg(instr.dest_reg(), pc + 4)
            next_pc = instr.target
        elif op is Opcode.JR:
            taken = True
            next_pc = regs[instr.rs]
        elif op is Opcode.JALR:
            taken = True
            self.write_reg(instr.dest_reg(), pc + 4)
            next_pc = regs[instr.rs]
        else:
            self._alu(instr)

        self.pc = next_pc
        self.instruction_count += 1
        if recorder is not None:
            recorder.record(pc, instr, next_pc, taken,
                            mem_addr=mem_addr, mem_size=mem_size,
                            value=value, silent=silent)

    # -- semantics ----------------------------------------------------------------

    def _branch_taken(self, instr: Instruction) -> bool:
        op = instr.op
        regs = self.regs
        a = to_signed(regs[instr.rs])
        if op is Opcode.BEQ:
            return regs[instr.rs] == regs[instr.rt]
        if op is Opcode.BNE:
            return regs[instr.rs] != regs[instr.rt]
        if op is Opcode.BLEZ:
            return a <= 0
        if op is Opcode.BGTZ:
            return a > 0
        if op is Opcode.BLTZ:
            return a < 0
        if op is Opcode.BGEZ:
            return a >= 0
        raise ExecutionError("not a branch: %s" % instr)

    def _alu(self, instr: Instruction) -> None:
        regs = self.regs
        rs = regs[instr.rs] if instr.rs is not None else 0
        rt = regs[instr.rt] if instr.rt is not None else 0
        imm = instr.imm if instr.imm is not None else 0
        self.write_reg(instr.dest_reg(), alu_result(instr.op, rs, rt, imm))


def run_program(program: Program,
                max_instructions: int = MAX_TRACE_INSTRUCTIONS
                ) -> PackedTrace:
    """Convenience: execute ``program`` and return its packed trace."""
    return FunctionalCpu(program).run_trace(max_instructions=max_instructions)


# The harness's name for tracing a workload (wrapped by layer timers).
run_trace_packed = run_program

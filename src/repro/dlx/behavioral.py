"""The ISA-level (behavioral) DLX simulator -- the *specification*.

Figure 1's left-hand side: a behaviour-level description executed one
instruction at a time ("switch (opcode) { case 'add': ... }"), against
which the RTL implementation is validated.  The comparison happens at
*checkpointing steps* -- "e.g. at the completion of each instruction"
-- so this simulator emits a :class:`Checkpoint` per retired
instruction carrying the full observable architectural state:
program counter, register file, PSW condition flags, and the memory
effect if any.

Semantics notes (shared with the pipelined implementation):

* word-addressed program and data memory; the PC counts instructions;
* branch/jump offsets are relative to the sequentially next
  instruction;
* R0 is hard-wired to zero;
* the PSW holds ``zero`` and ``negative`` flags updated by every ALU
  (R-type or immediate) instruction's result -- the "flags in the
  Processor Status Word" whose observability Sections 5-7 discuss;
* ``HALT`` stops execution; falling off the end of the program is an
  error (real programs end in HALT).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .isa import NUM_REGS, WORD_MASK, Format, Instruction, Op


class ExecutionError(Exception):
    """Raised on PC escapes, bad memory addresses, or cycle overrun."""


def _to_signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def alu(op: Op, a: int, b: int) -> int:
    """The shared ALU: 32-bit wrapping arithmetic/logic/compare.

    Used verbatim by both the behavioral and the pipelined model so
    that any spec/impl mismatch is a *control* (pipeline) issue, never
    a datapath discrepancy -- mirroring the paper's focus on control
    errors.
    """
    a &= WORD_MASK
    b &= WORD_MASK
    if op in (Op.ADD, Op.ADDI):
        return (a + b) & WORD_MASK
    if op in (Op.SUB, Op.SUBI):
        return (a - b) & WORD_MASK
    if op in (Op.AND, Op.ANDI):
        return a & b
    if op in (Op.OR, Op.ORI):
        return a | b
    if op in (Op.XOR, Op.XORI):
        return a ^ b
    if op == Op.SLL:
        return (a << (b & 31)) & WORD_MASK
    if op == Op.SRL:
        return (a >> (b & 31)) & WORD_MASK
    if op in (Op.SLT, Op.SLTI):
        return 1 if _to_signed(a) < _to_signed(b) else 0
    if op in (Op.SEQ, Op.SEQI):
        return 1 if a == b else 0
    if op in (Op.SGT, Op.SGTI):
        return 1 if _to_signed(a) > _to_signed(b) else 0
    if op == Op.LHI:
        return (b << 16) & WORD_MASK
    raise ExecutionError(f"alu cannot execute {op.value}")


class PSW(NamedTuple):
    """Processor status word: the condition flags of the case study.

    A named tuple, built on every ALU retirement: it compares and
    hashes as the tuple of its fields.
    """

    zero: bool = False
    negative: bool = False

    @classmethod
    def of(cls, result: int) -> "PSW":
        result &= WORD_MASK
        return cls(zero=result == 0, negative=bool(result & 0x80000000))


class Checkpoint(NamedTuple):
    """The observable architectural state at one instruction's
    completion -- the unit of spec-vs-impl comparison (Section 2).

    A named tuple, built on every retirement of either simulator: it
    compares and hashes as the tuple of its fields.

    Attributes
    ----------
    index:
        Retirement sequence number (0-based); the field shadows
        ``tuple.index``.
    instruction:
        The retired instruction.
    pc_after:
        The PC of the next instruction to execute.
    regs:
        The full register file after the instruction.
    psw:
        Condition flags after the instruction.
    mem_write:
        ``(address, value)`` if the instruction stored, else None.
    """

    index: int
    instruction: Instruction
    pc_after: int
    regs: Tuple[int, ...]
    psw: PSW
    mem_write: Optional[Tuple[int, int]]


class BehavioralDLX:
    """Instruction-at-a-time DLX interpreter.

    Parameters
    ----------
    program:
        The instruction sequence (word-addressed at PC 0, 1, ...).
    data:
        Initial data-memory contents (word address -> value).
    """

    def __init__(
        self,
        program: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        branch_oracle: Optional[Sequence[bool]] = None,
    ) -> None:
        self.program: Tuple[Instruction, ...] = tuple(program)
        # Forced branch-test results, consumed one per executed
        # conditional branch (architectural order).  This realizes the
        # paper's adoption of Ho et al.'s technique: the datapath
        # status signals the test model treated as free inputs are
        # "taken control of" during functional simulation, so the
        # generated abstract test set drives the same control path
        # concretely.  When exhausted (or absent), the real register
        # comparison decides.
        self._branch_oracle = (
            list(branch_oracle) if branch_oracle is not None else None
        )
        self._branch_index = 0
        self.pc = 0
        self.regs: List[int] = [0] * NUM_REGS
        self.psw = PSW()
        self.memory: Dict[int, int] = dict(data) if data else {}
        self.halted = False
        self.retired = 0

    # ------------------------------------------------------------------
    def read_reg(self, index: int) -> int:
        """Register read with hard-wired R0."""
        return 0 if index == 0 else self.regs[index] & WORD_MASK

    def write_reg(self, index: int, value: int) -> None:
        """Register write; writes to R0 are discarded."""
        if index != 0:
            self.regs[index] = value & WORD_MASK

    def load(self, address: int) -> int:
        return self.memory.get(address & WORD_MASK, 0)

    def store(self, address: int, value: int) -> None:
        self.memory[address & WORD_MASK] = value & WORD_MASK

    def _branch_zero(self, register_value: int) -> bool:
        """The branch-test result: forced by the oracle when provided."""
        if (
            self._branch_oracle is not None
            and self._branch_index < len(self._branch_oracle)
        ):
            result = self._branch_oracle[self._branch_index]
            self._branch_index += 1
            return result
        self._branch_index += 1
        return register_value == 0

    # ------------------------------------------------------------------
    def step(self) -> Optional[Checkpoint]:
        """Execute one instruction; return its checkpoint (None if
        already halted)."""
        if self.halted:
            return None
        if not 0 <= self.pc < len(self.program):
            raise ExecutionError(
                f"PC {self.pc} escaped the program "
                f"(length {len(self.program)}); missing HALT?"
            )
        instr = self.program[self.pc]
        op = instr.op
        next_pc = self.pc + 1
        mem_write: Optional[Tuple[int, int]] = None

        if op.is_alu:
            if op.format is Format.R:
                b = self.read_reg(instr.rs2)
            else:
                b = instr.imm
            result = alu(op, self.read_reg(instr.rs1), b)
            self.write_reg(instr.rd, result)
            self.psw = PSW.of(result)
        elif op.is_load:
            address = (self.read_reg(instr.rs1) + instr.imm) & WORD_MASK
            self.write_reg(instr.rd, self.load(address))
        elif op.is_store:
            address = (self.read_reg(instr.rs1) + instr.imm) & WORD_MASK
            value = self.read_reg(instr.rs2)
            self.store(address, value)
            mem_write = (address, value)
        elif op.is_branch:
            taken = self._branch_zero(self.read_reg(instr.rs1))
            if not op.taken_if_zero:
                taken = not taken
            if taken:
                next_pc = self.pc + 1 + instr.imm
        elif op.is_jump:
            # JR/JALR go where the register they read points (read
            # before JALR links, which may overwrite it); J/JAL jump by
            # their offset.
            if op.reads:
                next_pc = self.read_reg(instr.rs1)
            else:
                next_pc = self.pc + 1 + instr.imm
            if op.is_link:
                self.write_reg(31, self.pc + 1)
        elif op.halts:
            self.halted = True

        self.pc = next_pc
        checkpoint = Checkpoint(
            index=self.retired,
            instruction=instr,
            pc_after=self.pc,
            # r0 stays 0: write_reg never writes it.
            regs=tuple(self.regs),
            psw=self.psw,
            mem_write=mem_write,
        )
        self.retired += 1
        return checkpoint

    def run(self, max_steps: int = 100_000) -> List[Checkpoint]:
        """Run to HALT; returns all checkpoints.

        Raises
        ------
        ExecutionError
            If the program does not halt within ``max_steps``.
        """
        checkpoints: List[Checkpoint] = []
        for _step in range(max_steps):
            cp = self.step()
            if cp is None:
                return checkpoints
            checkpoints.append(cp)
            if self.halted:
                return checkpoints
        raise ExecutionError(
            f"program did not halt within {max_steps} instructions"
        )

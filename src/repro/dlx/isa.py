"""The DLX instruction set (Hennessy & Patterson), integer subset.

The case-study design (Section 7) "implements the DLX instruction set
(except the floating-point and exception-handling instructions)".
This module defines that subset: instruction formats, opcode/function
encodings, a typed :class:`Instruction` record, and 32-bit
encode/decode.

Formats (fields in machine-word order, MSB first):

* **R-type** (``opcode == 0``): ``op(6) rs1(5) rs2(5) rd(5) func(11)``
* **I-type**: ``op(6) rs1(5) rd(5) imm(16)``
* **J-type**: ``op(6) offset(26)``

Every immediate and offset is sign-extended, the 16-bit immediates of
the logical operations and LHI included: ``andi r1, r2, 0xFFFF`` does
not encode, and the field ``0xFFFF`` decodes to ``-1``, which ANDs
with ``0xFFFFFFFF``.  Branch/jump offsets are in *words* relative to
the sequentially next instruction (the usual DLX convention scaled to
our word-addressed program memory).  Both are simplifications that no
control decision depends on.

:data:`OPERANDS` is the one description of what each operation names,
reads and writes; the facts derived from it are attributes of the
:class:`Op` members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

WORD_MASK = 0xFFFFFFFF
NUM_REGS = 32


class Format(enum.Enum):
    """Instruction encoding format."""

    R = "R"
    I = "I"
    J = "J"


class Op(enum.Enum):
    """The implemented DLX operations (integer subset, no FP/traps).

    A member's value is its mnemonic.  The attributes annotated below
    are derived once, when this module loads, from the member's row of
    :data:`OPERANDS` and from the operation classes (``R_TYPE_OPS`` ...
    ``PSW_OPS``), so readers never re-test a class or hash a member.
    """

    # R-type ALU (opcode 0x00, distinguished by func)
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    SEQ = "seq"
    SGT = "sgt"
    # I-type ALU
    ADDI = "addi"
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SEQI = "seqi"
    SGTI = "sgti"
    LHI = "lhi"
    # Memory
    LW = "lw"
    SW = "sw"
    # Control transfer
    BEQZ = "beqz"
    BNEZ = "bnez"
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"
    # Misc
    NOP = "nop"
    HALT = "halt"

    #: The operands in assembly order (the row of :data:`OPERANDS`).
    operands: Tuple[str, ...]
    #: The register fields read, ``rs1`` first.
    reads: Tuple[str, ...]
    #: True when the destination is ``rd`` (a link writes r31).
    writes_rd: bool
    is_load: bool
    is_store: bool
    is_branch: bool
    is_jump: bool
    #: JAL and JALR, which write the return address to r31.
    is_link: bool
    #: R-type and immediate ALU operations, whose results set the PSW.
    is_alu: bool
    #: BEQZ: a conditional branch taken when its register is zero.
    taken_if_zero: bool
    halts: bool
    format: Format
    #: The text form, a :meth:`str.format_map` template over the
    #: fields of an :class:`Instruction`.
    text: str


# Opcode assignments (6 bits).  R-type ALU shares opcode 0.
OPCODES: Dict[Op, int] = {
    Op.ADD: 0x00, Op.SUB: 0x00, Op.AND: 0x00, Op.OR: 0x00,
    Op.XOR: 0x00, Op.SLL: 0x00, Op.SRL: 0x00, Op.SLT: 0x00,
    Op.SEQ: 0x00, Op.SGT: 0x00,
    Op.ADDI: 0x08, Op.SUBI: 0x0A, Op.ANDI: 0x0C, Op.ORI: 0x0D,
    Op.XORI: 0x0E, Op.LHI: 0x0F,
    Op.SLTI: 0x1B, Op.SEQI: 0x19, Op.SGTI: 0x1A,
    Op.LW: 0x23, Op.SW: 0x2B,
    Op.BEQZ: 0x04, Op.BNEZ: 0x05,
    Op.J: 0x02, Op.JAL: 0x03, Op.JR: 0x12, Op.JALR: 0x13,
    Op.NOP: 0x15, Op.HALT: 0x3F,
}

# Function codes for R-type ALU operations (11 bits).
FUNCS: Dict[Op, int] = {
    Op.ADD: 0x20, Op.SUB: 0x22, Op.AND: 0x24, Op.OR: 0x25,
    Op.XOR: 0x26, Op.SLL: 0x04, Op.SRL: 0x06, Op.SLT: 0x2A,
    Op.SEQ: 0x28, Op.SGT: 0x2B,
}

_FUNC_TO_OP = {func: op for op, func in FUNCS.items()}
_OPCODE_TO_OP = {
    code: op for op, code in OPCODES.items() if code != 0x00
}

#: Each operation's operands in assembly order: the registers ``rd``,
#: ``rs1`` and ``rs2``, an immediate ``imm``, a memory operand
#: ``imm(rs1)`` (an offset from a base register) or a branch or jump
#: ``target`` (a label, or a word offset).  This is the one description
#: of the operands: the assembler, the disassembler, the encoder,
#: :class:`Instruction` and both simulators read it, through the
#: attributes it gives each :class:`Op`.
OPERANDS: Dict[Op, Tuple[str, ...]] = {
    **dict.fromkeys(FUNCS, ("rd", "rs1", "rs2")),
    **dict.fromkeys(
        (Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SEQI,
         Op.SGTI),
        ("rd", "rs1", "imm"),
    ),
    Op.LHI: ("rd", "imm"),
    Op.LW: ("rd", "imm(rs1)"),
    Op.SW: ("rs2", "imm(rs1)"),
    **dict.fromkeys((Op.BEQZ, Op.BNEZ), ("rs1", "target")),
    **dict.fromkeys((Op.J, Op.JAL), ("target",)),
    **dict.fromkeys((Op.JR, Op.JALR), ("rs1",)),
    **dict.fromkeys((Op.NOP, Op.HALT), ()),
}

R_TYPE_OPS = frozenset(FUNCS)
ALU_IMM_OPS = frozenset(op for op, row in OPERANDS.items() if "imm" in row)
BRANCH_OPS = frozenset({Op.BEQZ, Op.BNEZ})
JUMP_OPS = frozenset({Op.J, Op.JAL, Op.JR, Op.JALR})
LOAD_OPS = frozenset({Op.LW})
STORE_OPS = frozenset({Op.SW})
# Operations whose retirement updates the PSW condition flags.
PSW_OPS = R_TYPE_OPS | ALU_IMM_OPS

_OPERAND_TEXT = {
    "rd": "r{rd}", "rs1": "r{rs1}", "rs2": "r{rs2}", "imm": "{imm}",
    "imm(rs1)": "{imm}(r{rs1})", "target": "{imm}",
}


def _derive_facts() -> None:
    """Give every operation the attributes :class:`Op` annotates, from
    its row of :data:`OPERANDS` and its classes."""
    for op, operands in OPERANDS.items():
        # A memory operand reads its base register.
        registers = {"rs1" if o == "imm(rs1)" else o for o in operands}
        op.operands = operands
        op.reads = tuple(sorted(registers & {"rs1", "rs2"}))
        op.writes_rd = "rd" in registers
        op.is_load = op in LOAD_OPS
        op.is_store = op in STORE_OPS
        op.is_branch = op in BRANCH_OPS
        op.is_jump = op in JUMP_OPS
        op.is_link = op in (Op.JAL, Op.JALR)
        op.is_alu = op in PSW_OPS
        op.taken_if_zero = op is Op.BEQZ
        op.halts = op is Op.HALT
        if operands == ("rd", "rs1", "rs2"):
            op.format = Format.R
        elif operands == ("target",):
            op.format = Format.J
        else:
            op.format = Format.I
        spelled = ", ".join(_OPERAND_TEXT[o] for o in operands)
        op.text = f"{op.value} {spelled}" if operands else op.value


_derive_facts()


def format_of(op: Op) -> Format:
    """The encoding format of an operation."""
    return op.format


@dataclass(frozen=True)
class Instruction:
    """One decoded DLX instruction.

    Fields unused by an operation's format are zero.  ``imm`` holds the
    sign-interpreted immediate / offset (Python int, not a raw field).
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for field_name in ("rd", "rs1", "rs2"):
            value = getattr(self, field_name)
            if not 0 <= value < NUM_REGS:
                raise ValueError(
                    f"{self.op.value}: register {field_name}={value} "
                    f"out of range"
                )

    # -- classification -------------------------------------------------
    @property
    def is_load(self) -> bool:
        return self.op.is_load

    @property
    def is_store(self) -> bool:
        return self.op.is_store

    @property
    def is_branch(self) -> bool:
        return self.op.is_branch

    @property
    def is_jump(self) -> bool:
        return self.op.is_jump

    @property
    def is_control(self) -> bool:
        return self.op.is_branch or self.op.is_jump

    @property
    def writes_reg(self) -> bool:
        """Does this instruction write a register?"""
        if self.op.writes_rd:
            return self.rd != 0
        return self.op.is_link

    @property
    def dest(self) -> int:
        """Destination register number (0 when none)."""
        if self.op.writes_rd:
            return self.rd
        return 31 if self.op.is_link else 0

    @property
    def sources(self) -> Tuple[int, ...]:
        """Register numbers read by this instruction, rs1 first."""
        return tuple([getattr(self, name) for name in self.op.reads])

    def __str__(self) -> str:
        return self.op.text.format_map(vars(self))


NOP = Instruction(Op.NOP)
HALT = Instruction(Op.HALT)


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
class EncodingError(Exception):
    """Raised on out-of-range fields or undecodable words."""


def _signed(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as two's complement."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def _fit_signed(value: int, bits: int, what: str) -> int:
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise EncodingError(f"{what} {value} does not fit in {bits} bits")
    return value & ((1 << bits) - 1)


def encode(instr: Instruction) -> int:
    """Encode an instruction as a 32-bit word."""
    op = instr.op
    opcode = OPCODES[op]
    fmt = op.format
    if fmt is Format.R:
        return (
            (opcode << 26)
            | (instr.rs1 << 21)
            | (instr.rs2 << 16)
            | (instr.rd << 11)
            | FUNCS[op]
        )
    if fmt is Format.J:
        return (opcode << 26) | _fit_signed(instr.imm, 26, "jump offset")
    # I-type.  SW keeps its store-data register in the rd slot per the
    # DLX convention (rd field carries rs2 for stores).
    reg_field = instr.rs2 if op.is_store else instr.rd
    imm = _fit_signed(instr.imm, 16, f"{op.value} immediate")
    return (opcode << 26) | (instr.rs1 << 21) | (reg_field << 16) | imm


def decode(word: int) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises
    ------
    EncodingError
        On unknown opcodes or function codes -- the "invalid
        instructions" whose exclusion forms part of the input
        don't-care set (Section 7.2).
    """
    word &= WORD_MASK
    opcode = (word >> 26) & 0x3F
    if opcode == 0x00:
        func = word & 0x7FF
        op = _FUNC_TO_OP.get(func)
        if op is None:
            raise EncodingError(f"unknown R-type function 0x{func:03x}")
        return Instruction(
            op,
            rd=(word >> 11) & 0x1F,
            rs1=(word >> 21) & 0x1F,
            rs2=(word >> 16) & 0x1F,
        )
    op = _OPCODE_TO_OP.get(opcode)
    if op is None:
        raise EncodingError(f"unknown opcode 0x{opcode:02x}")
    if op.format is Format.J:
        return Instruction(op, imm=_signed(word, 26))
    if not op.operands:
        return Instruction(op)
    rs1 = (word >> 21) & 0x1F
    reg = (word >> 16) & 0x1F
    imm = _signed(word, 16)
    if op.is_store:
        return Instruction(op, rs1=rs1, rs2=reg, imm=imm)
    return Instruction(op, rd=reg, rs1=rs1, imm=imm)


def is_valid_word(word: int) -> bool:
    """True iff ``word`` decodes to an implemented instruction."""
    try:
        decode(word)
        return True
    except EncodingError:
        return False

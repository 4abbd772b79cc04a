"""Pins what the DLX instruction set says about every operation.

``ISA_DIGEST`` covers, for every operation and a seeded sample of
field values (fields an operation does not use included), the text
and ``repr`` forms, the encoded word or the ``EncodingError`` text,
the decoded word, the registers read and written and every class
predicate.  ``WORDS_DIGEST`` covers ``decode`` and ``is_valid_word``
on seeded 32-bit words, most of them with a known opcode (and
function code) and random bits in every other field.  The
assembler's error messages are pinned literally, one list per
operand shape, including which error wins on a line with two bad
operands.  An intended change to any of these updates the pin and
says why in CHANGES.md.
"""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dlx.assembler import AssemblerError, assemble
from repro.dlx.isa import (
    ALU_IMM_OPS,
    BRANCH_OPS,
    FUNCS,
    LOAD_OPS,
    OPCODES,
    R_TYPE_OPS,
    STORE_OPS,
    EncodingError,
    Instruction,
    Op,
    decode,
    encode,
    format_of,
    is_valid_word,
)

ISA_DIGEST = (
    "c0cb9c579a39bb605363f793831b0c2382d596089de2bbe0487494d8a643ca14"
)
WORDS_DIGEST = (
    "a15bee34a4d8a79257160ce09e110b2a54c4503a94588d862fb696889c042f75"
)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sampled_instructions():
    """Every operation with edge and seeded random field values; the
    immediates reach past 16 and 26 bits so encoding errors show."""
    rng = random.Random(20240601)
    edges = (0, 1, -1, (1 << 15) - 1, -(1 << 15), 1 << 15,
             (1 << 25) - 1, -(1 << 25), 1 << 25)
    for op in Op:
        yield Instruction(op)
        for imm in edges:
            yield Instruction(op, rd=31, rs1=31, rs2=31, imm=imm)
        for _ in range(24):
            yield Instruction(
                op,
                rd=rng.randrange(32),
                rs1=rng.randrange(32),
                rs2=rng.randrange(32),
                imm=rng.randrange(-(1 << 26), 1 << 26) >> rng.randrange(27),
            )


def _instruction_line(instr):
    try:
        word = encode(instr)
        encoded = f"{word:08x} {decode(word)!r}"
    except EncodingError as exc:
        encoded = f"EncodingError({exc})"
    return (
        f"{instr!r} | {instr} | {encoded} | src={instr.sources} "
        f"dest={instr.dest} writes={instr.writes_reg} "
        f"load={instr.is_load} store={instr.is_store} "
        f"branch={instr.is_branch} jump={instr.is_jump} "
        f"control={instr.is_control} format={format_of(instr.op)}"
    )


def _sampled_words():
    rng = random.Random(19970609)
    opcodes = sorted(set(OPCODES.values()))
    funcs = sorted(FUNCS.values())
    for _ in range(600):
        yield rng.getrandbits(32)
    for _ in range(2400):
        word = rng.getrandbits(26) | (rng.choice(opcodes) << 26)
        if word >> 26 == 0 and rng.random() < 0.8:
            word = (word & ~0x7FF) | rng.choice(funcs)
        yield word


def _word_line(word):
    try:
        decoded = repr(decode(word))
    except EncodingError as exc:
        decoded = f"EncodingError({exc})"
    return f"{word:08x} {decoded} valid={is_valid_word(word)}"


class TestPinnedIsa:
    def test_instructions(self):
        lines = [_instruction_line(i) for i in _sampled_instructions()]
        assert len(lines) == 34 * len(Op)
        assert _digest(lines) == ISA_DIGEST

    def test_words(self):
        lines = [_word_line(w) for w in _sampled_words()]
        assert _digest(lines) == WORDS_DIGEST


def _shown_fields(op):
    """The fields the text form of ``op`` shows (an independent
    statement of the ISA's operand shapes, for the round trip)."""
    if op in R_TYPE_OPS:
        return ("rd", "rs1", "rs2")
    if op is Op.LHI:
        return ("rd", "imm")
    if op in ALU_IMM_OPS or op in LOAD_OPS:
        return ("rd", "rs1", "imm")
    if op in STORE_OPS:
        return ("rs1", "rs2", "imm")
    if op in BRANCH_OPS:
        return ("rs1", "imm")
    if op in (Op.J, Op.JAL):
        return ("imm",)
    if op in (Op.JR, Op.JALR):
        return ("rs1",)
    return ()


@st.composite
def shown_instructions(draw):
    op = draw(st.sampled_from(list(Op)))
    fields = {
        name: draw(
            st.integers() if name == "imm" else st.integers(0, 31)
        )
        for name in _shown_fields(op)
    }
    return Instruction(op, **fields)


@given(shown_instructions())
def test_text_round_trips_through_the_assembler(instr):
    assert assemble(str(instr)) == [instr]


#: (source, message) per operand shape: wrong count, bad register,
#: bad integer, bad memory operand, and two bad operands on one line
#: (the first error in the parse order wins; a memory operand's shape
#: is checked before any register, and its base before its offset).
ASSEMBLER_ERRORS = {
    "rd, rs1, rs2": [
        ("add r1, r2", "line 1: add needs rd, rs1, rs2"),
        ("add r1, r2, r3, r4", "line 1: add needs rd, rs1, rs2"),
        ("ADD r1, r2", "line 1: add needs rd, rs1, rs2"),
        ("add q1, r2, r3", "line 1: expected register, got 'q1'"),
        ("add r1, rx, r3", "line 1: bad register 'rx'"),
        ("add r1, r2, r32", "line 1: register 'r32' out of range"),
        ("add Q1, r99, r3", "line 1: expected register, got 'q1'"),
        ("add r1, r99, q3", "line 1: register 'r99' out of range"),
    ],
    "rd, rs1, imm": [
        ("addi r1, r2", "line 1: addi needs rd, rs1, imm"),
        ("addi r1, r2, x", "line 1: expected integer, got 'x'"),
        ("addi r1, r-1, 4", "line 1: register 'r-1' out of range"),
        ("addi r1, q2, x", "line 1: expected register, got 'q2'"),
        ("addi q1, r2, 1.5", "line 1: expected register, got 'q1'"),
    ],
    "rd, imm": [
        ("lhi r1", "line 1: lhi needs rd, imm"),
        ("lhi r1, 2, 3", "line 1: lhi needs rd, imm"),
        ("lhi r1, y", "line 1: expected integer, got 'y'"),
        ("lhi q1, y", "line 1: expected register, got 'q1'"),
    ],
    "rd, imm(rs1)": [
        ("lw r1", "line 1: lw needs rd, imm(rs1)"),
        ("lw r1, 4", "line 1: bad memory operand '4'"),
        ("lw r1, 4(q2)", "line 1: bad memory operand '4(q2)'"),
        ("lw q1, x", "line 1: bad memory operand 'x'"),
        ("lw q1, 4(r1)", "line 1: expected register, got 'q1'"),
        ("lw r1, x(r2)", "line 1: expected integer, got 'x'"),
        ("lw r1, 4(R40)", "line 1: register 'r40' out of range"),
        ("lw r1, x(r32)", "line 1: register 'r32' out of range"),
        ("lw q1, x(r32)", "line 1: expected register, got 'q1'"),
    ],
    "rs2, imm(rs1)": [
        ("sw r1", "line 1: sw needs rs2, imm(rs1)"),
        ("sw r1, (r2)", "line 1: bad memory operand '(r2)'"),
        ("sw q1, x", "line 1: bad memory operand 'x'"),
        ("sw q1, 4(r2)", "line 1: expected register, got 'q1'"),
        ("sw r1, y(r2)", "line 1: expected integer, got 'y'"),
        ("sw r1, x(r99)", "line 1: register 'r99' out of range"),
    ],
    "rs1, target": [
        ("beqz r1", "line 1: beqz needs rs1, target"),
        ("bnez r1, 1, 2", "line 1: bnez needs rs1, target"),
        ("beqz r1, nowhere", "line 1: expected integer, got 'nowhere'"),
        ("beqz q1, nowhere", "line 1: expected register, got 'q1'"),
    ],
    "target": [
        ("j", "line 1: j needs a target"),
        ("jal a, b", "line 1: jal needs a target"),
        ("j nowhere", "line 1: expected integer, got 'nowhere'"),
    ],
    "rs1": [
        ("jr", "line 1: jr needs rs1"),
        ("jr r1, r2", "line 1: jr needs rs1"),
        ("jalr q1", "line 1: expected register, got 'q1'"),
    ],
    "no operands": [
        ("nop r1", "line 1: nop takes no operands"),
        ("halt 0", "line 1: halt takes no operands"),
    ],
    "statements": [
        ("frob r1", "line 1: unknown mnemonic 'frob'"),
        ("1x: nop", "line 1: bad label '1x'"),
        ("a: nop\na: halt", "line 2: duplicate label 'a'"),
        ("nop ; fine\n  lw q1, x # both bad", "line 2: bad memory operand 'x'"),
    ],
}


@pytest.mark.parametrize("shape", sorted(ASSEMBLER_ERRORS))
def test_assembler_error_messages(shape):
    for source, message in ASSEMBLER_ERRORS[shape]:
        with pytest.raises(AssemblerError) as caught:
            assemble(source)
        assert str(caught.value) == message, source

"""A two-pass DLX assembler and disassembler.

Accepts the conventional textual syntax::

    ; compute fib(10)
            addi  r1, r0, 10
    loop:   beqz  r1, done
            add   r4, r2, r3
            subi  r1, r1, 1
            j     loop
    done:   halt

Labels resolve to instruction addresses; branch/jump operands may be
labels (converted to the relative word offsets the ISA uses) or
literal offsets.  Memory operands use ``imm(rN)``.  ``;`` and ``#``
start comments.  The disassembler inverts :func:`assemble` back to
canonical text, which the round-trip tests rely on.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from .isa import Instruction, Op


class AssemblerError(Exception):
    """Raised on syntax errors, unknown mnemonics or bad operands."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_MNEMONICS = {op.value: op for op in Op}
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^(-?\w+)\((r\d+|R\d+)\)$")


def _parse_reg(token: str, line_no: int) -> int:
    token = token.strip().lower()
    if not token.startswith("r"):
        raise AssemblerError(line_no, f"expected register, got {token!r}")
    try:
        num = int(token[1:])
    except ValueError:
        raise AssemblerError(line_no, f"bad register {token!r}") from None
    if not 0 <= num < 32:
        raise AssemblerError(line_no, f"register {token!r} out of range")
    return num


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(
            line_no, f"expected integer, got {token!r}"
        ) from None


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        if marker in line:
            line = line.split(marker, 1)[0]
    return line.strip()


def assemble(text: str) -> List[Instruction]:
    """Assemble a program text into an instruction list.

    Two passes: the first collects label addresses, the second encodes
    instructions with label operands resolved to relative offsets
    (branches/jumps) as the ISA defines them.
    """
    # ---- pass 1: labels and raw statements ---------------------------
    statements: List[Tuple[int, str]] = []  # (line number, statement)
    labels: Dict[str, int] = {}
    address = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        while ":" in line:
            label, _colon, rest = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AssemblerError(line_no, f"bad label {label!r}")
            if label in labels:
                raise AssemblerError(line_no, f"duplicate label {label!r}")
            labels[label] = address
            line = rest.strip()
        if line:
            statements.append((line_no, line))
            address += 1

    # ---- pass 2: encode ----------------------------------------------
    program: List[Instruction] = []
    for address, (line_no, stmt) in enumerate(statements):
        parts = stmt.split(None, 1)
        mnemonic = parts[0].lower()
        op = _MNEMONICS.get(mnemonic)
        if op is None:
            raise AssemblerError(line_no, f"unknown mnemonic {mnemonic!r}")
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [tok.strip() for tok in operand_text.split(",") if tok.strip()]
        shape = op.operands
        if len(operands) != len(shape):
            if not shape:
                wants = "takes no operands"
            elif shape == ("target",):
                wants = "needs a target"
            else:
                wants = "needs " + ", ".join(shape)
            raise AssemblerError(line_no, f"{mnemonic} {wants}")
        # A memory operand splits into base and offset before any token
        # is parsed, so a malformed one is the error its line reports.
        tokens: List[Tuple[str, str]] = []
        for kind, token in zip(shape, operands):
            if kind == "imm(rs1)":
                match = _MEM_RE.match(token)
                if not match:
                    raise AssemblerError(
                        line_no, f"bad memory operand {token!r}"
                    )
                tokens += [("rs1", match.group(2)), ("imm", match.group(1))]
            else:
                tokens.append((kind, token))
        fields: Dict[str, int] = {}
        for kind, token in tokens:
            if kind == "target" and token in labels:
                # A label becomes the offset from the next instruction.
                fields["imm"] = labels[token] - (address + 1)
            elif kind in ("imm", "target"):
                fields["imm"] = _parse_int(token, line_no)
            else:
                fields[kind] = _parse_reg(token, line_no)
        program.append(Instruction(op, **fields))
    return program


def disassemble(program: Sequence[Instruction]) -> str:
    """Render a program back to assembly text (one statement per line).

    Branch/jump offsets are emitted as literal relative offsets, which
    :func:`assemble` accepts back -- the round-trip is exact.
    """
    return "\n".join(str(instr) for instr in program)

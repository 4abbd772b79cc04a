"""Abstract-to-concrete test conversion (input filling).

The tour generator produces input sequences over the *test model*'s
reduced alphabet: instruction class, 1-bit register fields, and the
branch-test result ``data_zero`` as a free input.  "A test sequence
for the test model needs to be converted to a test sequence for the
implementation simulation model since some of the inputs may have been
abstracted out" (Section 4.3).  This module performs that conversion:

* each tour vector becomes one concrete :class:`Instruction`, placed
  at consecutive program addresses -- which matches the pipeline's
  fetch stream exactly, because taken control transfers in the model
  and the machine squash the same two following slots and our branches
  always target the instruction after the squash window (offset +2);
* immediates are drawn from a non-repeating counter, realizing
  Requirement 3's data picking ("each unique input results in a
  unique output"): two different instruction instances never produce
  identical results by accident;
* the abstracted datapath status ``data_zero`` is *taken control of*
  during simulation (the Ho et al. technique adopted in Section 6.1):
  the tour's chosen values are collected into a branch oracle that
  both the specification and implementation simulators consume, so
  the concrete run drives the exact control path the tour covered;
* no-fetch (idle) vectors have no concrete counterpart in a machine
  that always fetches when it can; they are realized as NOPs and
  counted in the conversion notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..dlx.isa import HALT, Instruction, NOP, OPCODES

_OP_BY_CODE = {}
for _op, _code in OPCODES.items():
    _OP_BY_CODE.setdefault(_code, _op)


class ConversionError(Exception):
    """Raised when a tour vector cannot be realized concretely."""


@dataclass(frozen=True)
class ConcreteTest:
    """A runnable realization of an abstract test sequence.

    Attributes
    ----------
    program:
        The instruction stream (ends with HALT).
    branch_oracle:
        Forced branch-test results, one per conditional branch in
        program order -- pass to both simulators.
    data:
        Initial data-memory image.  Loads must return *distinct,
        non-zero* values or dataflow faults hide behind the all-zero
        reset state (Requirement 3 applied to load data); the image
        maps a large address window through a mixing function.
    idle_vectors:
        How many no-fetch tour vectors were realized as NOPs.
    source_length:
        Length of the abstract input sequence converted.
    """

    program: Tuple[Instruction, ...]
    branch_oracle: Tuple[bool, ...]
    data: Dict[int, int]
    idle_vectors: int
    source_length: int


def distinct_data_image(window: int = 1 << 17) -> Dict[int, int]:
    """A data-memory image whose words are distinct and non-zero.

    Knuth multiplicative mixing over a sliding address window; ORing 1
    keeps every value truthy so a loaded word never collides with the
    reset register value.
    """
    return {
        addr: ((addr * 2654435761) & 0xFFFF_FFFF) | 1
        for addr in range(window)
    }


def _vector_fields(vector: Mapping[str, bool]) -> Dict[str, int]:
    """Decode a canonical test-model input vector into integer fields."""
    env = dict(vector)
    fields = {"op": 0, "rs1": 0, "rs2": 0, "rd": 0}
    for name, value in env.items():
        if not value:
            continue
        if name.startswith("in_op["):
            fields["op"] |= 1 << int(name[6:-1])
        elif name.startswith("in_rs1["):
            fields["rs1"] |= 1 << int(name[7:-1])
        elif name.startswith("in_rs2["):
            fields["rs2"] |= 1 << int(name[7:-1])
        elif name.startswith("in_rd["):
            fields["rd"] |= 1 << int(name[6:-1])
    fields["data_zero"] = int(bool(env.get("data_zero", False)))
    fields["fetch_en"] = int(bool(env.get("fetch_en", False)))
    return fields


def _as_mapping(vector) -> Mapping[str, bool]:
    """Accept both dict vectors and canonical (name, value) tuples."""
    if isinstance(vector, Mapping):
        return vector
    return dict(vector)


def fill_inputs(
    abstract_inputs: Sequence, registers: int = 2
) -> ConcreteTest:
    """Convert an abstract test sequence into a concrete program.

    ``abstract_inputs`` is the tour's input sequence over the test
    model (dicts or canonical tuples).  Each vector's operation is
    realized from its row of :data:`repro.dlx.isa.OPERANDS`.  Register
    fields are used directly (the reduced model's registers
    r0..r{registers-1} are the machine's registers of the same
    numbers; the model's link destination corresponds to r31).
    """
    program: List[Instruction] = []
    oracle: List[bool] = []
    idle = 0
    unique = 0  # Requirement 3 data picker

    for vector in abstract_inputs:
        fields = _vector_fields(_as_mapping(vector))
        if not fields["fetch_en"]:
            idle += 1
            program.append(NOP)
            continue
        code = fields["op"]
        op = _OP_BY_CODE.get(code)
        if op is None:
            raise ConversionError(f"vector opcode {code:#x} is not decodable")
        rs1, rs2, rd = fields["rs1"], fields["rs2"], fields["rd"]
        if max(rs1, rs2, rd) >= max(registers, 1):
            raise ConversionError(
                f"vector register field exceeds the {registers}-register "
                f"reduction"
            )
        if op.is_jump and "target" not in op.operands:
            raise ConversionError(
                f"no concrete realization for {op.value} vectors"
            )
        if not op.operands:
            # NOP, and HALT: HALT mid-test would stop the run, so the
            # appended terminal HALT ends the program instead.
            program.append(NOP)
            continue
        operands: Dict[str, int] = {}
        for operand in op.operands:
            if operand in ("rd", "rs1", "rs2"):
                operands[operand] = fields[operand]
            elif operand == "target":
                # Target +2: resume right after the two-slot squash
                # window, so taken and untaken branches both keep the
                # fetch stream equal to the program order -- see the
                # module docstring.
                operands["imm"] = 2
            else:
                # Non-zero, non-repeating within 15 bits (sign-safe).
                unique += 1
                magnitude = 1 + (unique % 30000)
                if operand == "imm(rs1)":
                    operands.update(rs1=rs1, imm=magnitude)
                else:
                    # Alternate the immediate's sign: negative results
                    # drive the PSW negative flag through both values,
                    # so flag-update errors become visible at
                    # checkpoints (Requirement 3's "appropriately
                    # picking data values that distinguish the outputs"
                    # applied to the condition flags).
                    operands["imm"] = magnitude if magnitude % 2 else -magnitude
        program.append(Instruction(op, **operands))
        if op.is_branch:
            # The oracle stores zero-ness; BNEZ takes when it is False.
            oracle.append(bool(fields["data_zero"]))
    # Terminal padding: room for the last branch's squash window, then
    # HALT.
    program.extend([NOP, NOP, HALT])
    return ConcreteTest(
        program=tuple(program),
        branch_oracle=tuple(oracle),
        data=distinct_data_image(),
        idle_vectors=idle,
        source_length=len(abstract_inputs),
    )

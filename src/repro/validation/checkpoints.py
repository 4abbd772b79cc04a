"""Checkpointed comparison of specification vs implementation runs.

Section 2: "the comparison between them is made at special
checkpointing steps, e.g. at the completion of each instruction.  To
enable this, the implementation state used in this comparison is
observable during functional simulation."  Our checkpoints carry the
full architectural state (registers, PSW, memory effects, next PC);
this module diffs two checkpoint streams and reports the first
divergence with its field -- the diagnostic granularity the
experiments aggregate over.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..dlx.behavioral import Checkpoint
from .report import Mismatch


def _diff_regs(
    expected: Tuple[int, ...], observed: Tuple[int, ...]
) -> Optional[Tuple[int, int, int]]:
    """First differing register: (number, expected, observed)."""
    for idx, (want, got) in enumerate(zip(expected, observed)):
        if want != got:
            return idx, want, got
    return None


def compare_checkpoint(
    index: int, expected: Checkpoint, observed: Checkpoint
) -> Optional[Mismatch]:
    """Compare one checkpoint pair; None when they agree."""
    if expected.instruction != observed.instruction:
        return Mismatch(
            index,
            "instruction",
            str(expected.instruction),
            str(observed.instruction),
        )
    if expected.pc_after != observed.pc_after:
        return Mismatch(index, "pc_after", expected.pc_after, observed.pc_after)
    if expected.regs != observed.regs:
        reg_diff = _diff_regs(expected.regs, observed.regs)
        if reg_diff is not None:
            reg, want, got = reg_diff
            return Mismatch(index, "regs", f"r{reg}={want}", f"r{reg}={got}")
    if expected.psw != observed.psw:
        return Mismatch(index, "psw", expected.psw, observed.psw)
    if expected.mem_write != observed.mem_write:
        return Mismatch(
            index, "mem_write", expected.mem_write, observed.mem_write
        )
    return None


def compare_streams(
    expected: Sequence[Checkpoint], observed: Sequence[Checkpoint]
) -> Optional[Mismatch]:
    """Compare two checkpoint streams; None when fully equal.

    A shorter/longer implementation stream (missing or spurious
    retirements -- e.g. wrong-path instructions retiring under a
    squash bug) is a mismatch at the index where the streams first
    disagree in length or content.
    """
    for index, (want, got) in enumerate(zip(expected, observed)):
        mismatch = compare_checkpoint(index, want, got)
        if mismatch is not None:
            return mismatch
    if len(expected) != len(observed):
        return Mismatch(
            min(len(expected), len(observed)),
            "length",
            len(expected),
            len(observed),
        )
    return None

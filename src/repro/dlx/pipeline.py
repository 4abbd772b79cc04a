"""The 5-stage pipelined DLX -- the *implementation* under validation.

A cycle-accurate model of the case-study design (Section 7): "a
standard 5-stage pipeline ... with interlock detection, bypassing,
squashing and stalling":

* **IF** fetch, **ID** decode + register read + interlock, **EX** ALU,
  branch resolution and operand bypassing, **MEM** data memory,
  **WB** register writeback + PSW update + retirement.
* **Interlock**: a load in EX whose destination is read by the
  instruction in ID stalls the front end for one cycle (load-use
  hazard; the loaded value is only available after MEM).
* **Bypassing**: EX operands are forwarded from EX/MEM (ALU results;
  for loads that latch holds the *address*, which is exactly why the
  interlock exists) and from MEM/WB (ALU results and load data).
  Store data is forwarded on the same network.
* **Squashing**: control transfers resolve in EX with
  predict-not-taken fetch; a taken branch/jump kills the two
  wrong-path instructions behind it and redirects fetch.

Retirement produces the same :class:`~repro.dlx.behavioral.Checkpoint`
records as the behavioral simulator, enabling the Figure 1
checkpointed comparison.  Every control decision taken in a cycle is
recorded in a :class:`ControlTrace` entry; the test suite checks these
traces against the control *netlist* of :mod:`repro.dlx.control`,
tying the Python implementation to the model the test model is
abstracted from.

The :class:`PipelineBugs` knobs inject realistic design errors
(interlock dropped, bypass path missing, squash miscounted, ...) --
the error population for the DLX validation experiments; see
:mod:`repro.dlx.buggy` for the catalog.  Every knob is read at the
decision site it corrupts, together with that site's *sensitizing
condition*: whether setting the knob alone would change this cycle's
decision.  A run records the first cycle each knob was sensitized
(:attr:`PipelinedDLX.first_sensitized`); on a run of the correct
design, a knob never recorded there cannot make the buggy design
leave the correct one's run (METHODOLOGY §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .behavioral import PSW, Checkpoint, ExecutionError, alu
from .isa import NUM_REGS, WORD_MASK, Format, Instruction


@dataclass(frozen=True)
class PipelineBugs:
    """Design-error injection knobs (all False = correct design)."""

    disable_interlock: bool = False
    """Load-use hazard not detected: the consumer receives the load's
    *address* from the EX/MEM bypass instead of the loaded data."""

    no_forward_exmem: bool = False
    """EX/MEM -> EX bypass path missing: distance-1 ALU dependencies
    read stale register values."""

    no_forward_memwb: bool = False
    """MEM/WB -> EX bypass path missing: distance-2 dependencies read
    stale register values."""

    wrong_forward_priority: bool = False
    """Bypass priority inverted: when both EX/MEM and MEM/WB carry the
    register, the *older* value wins (wrong for back-to-back writes)."""

    interlock_misses_rs2: bool = False
    """Interlock checks only the first source register: load-use
    hazards through rs2 (R-type second operand, store data) escape."""

    squash_only_one: bool = False
    """Taken branches kill only the instruction being fetched; the one
    already in IF/ID (wrong path) is allowed to execute."""

    no_squash: bool = False
    """Taken branches redirect fetch but squash nothing: both
    wrong-path instructions execute."""

    no_store_data_forward: bool = False
    """Store data not on the bypass network: SW may write stale data."""

    psw_skips_immediates: bool = False
    """PSW condition flags not updated by ALU-immediate instructions."""

    jal_links_wrong_pc: bool = False
    """JAL/JALR write PC+2 instead of PC+1 to the link register."""

    def any_active(self) -> bool:
        """True iff at least one bug knob is set."""
        return any(getattr(self, f) for f in self.__dataclass_fields__)


@dataclass(frozen=True)
class _InFlight:
    """An instruction travelling down the pipe with its bookkeeping."""

    instr: Instruction
    pc: int
    seq: int  # fetch sequence number (diagnostics only)
    a: int = 0           # first operand read in ID
    b: int = 0           # second operand read in ID
    store_data: int = 0  # rs2 value for SW
    value: int = 0       # ALU result / load data / link value
    next_pc: int = 0     # resolved at EX
    taken: bool = False
    mem_write: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class ControlTrace:
    """The control decisions of one clock cycle.

    This is the implementation-side ground truth the control netlist
    (:mod:`repro.dlx.control`) must agree with.
    """

    cycle: int
    stall: bool
    squash: bool
    fwd_a: str  # "none" | "exmem" | "memwb"
    fwd_b: str
    fwd_store: str
    branch_taken: bool
    id_valid: bool
    ex_valid: bool
    mem_valid: bool
    wb_valid: bool
    ex_is_load: bool
    # Netlist co-verification inputs: what was fetched this cycle (None
    # when the front end could not fetch), and the EX-stage branch-test
    # result from the bypass-fed comparator (the datapath status signal
    # the test model sees as the primary input ``data_zero``).
    fetched: Optional[Instruction] = None
    can_fetch: bool = False
    ex_a_zero: bool = False


class PipelinedDLX:
    """Cycle-accurate 5-stage pipelined DLX."""

    def __init__(
        self,
        program: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        bugs: Optional[PipelineBugs] = None,
        branch_oracle: Optional[Sequence[bool]] = None,
    ) -> None:
        self.program: Tuple[Instruction, ...] = tuple(program)
        self.bugs = bugs or PipelineBugs()
        # Forced branch-test results (see BehavioralDLX): consumed one
        # per conditional branch resolved in EX.  In a correct design
        # every EX-resolved branch is architectural (squash kills
        # wrong-path instructions before EX), so the consumption order
        # matches the behavioral model's.
        self._branch_oracle = (
            list(branch_oracle) if branch_oracle is not None else None
        )
        self._branch_index = 0
        self.pc = 0
        self.regs: List[int] = [0] * NUM_REGS
        self.psw = PSW()
        self.memory: Dict[int, int] = dict(data) if data else {}
        self.halted = False
        self.cycle_count = 0
        self.retired = 0
        self._fetch_seq = 0
        # Pipeline latches (None = bubble).
        self.if_id: Optional[_InFlight] = None
        self.id_ex: Optional[_InFlight] = None
        self.ex_mem: Optional[_InFlight] = None
        self.mem_wb: Optional[_InFlight] = None
        self.trace: List[ControlTrace] = []
        self.checkpoints: List[Checkpoint] = []
        # Per-instruction latency measurements for Requirement 2.
        self.issue_cycle: Dict[int, int] = {}
        self.latencies: List[Tuple[Instruction, int]] = []
        # Bug knob -> first cycle its decision site was sensitized.
        self.first_sensitized: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index] & WORD_MASK

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & WORD_MASK

    def _bug(self, knob: str, sensitized: bool) -> bool:
        """Read bug ``knob`` at the decision site it corrupts.

        ``sensitized`` is the site's condition for setting ``knob``
        alone to change this cycle's decision, evaluated as in the
        correct design; the first cycle it holds goes into
        :attr:`first_sensitized`.  Sites read every knob they consult
        before combining them, so no short circuit skips a record.
        """
        if sensitized and knob not in self.first_sensitized:
            self.first_sensitized[knob] = self.cycle_count
        return getattr(self.bugs, knob)

    # ------------------------------------------------------------------
    # Forwarding network
    # ------------------------------------------------------------------
    def _forward(
        self, reg: int, fallback: int
    ) -> Tuple[int, str]:
        """Resolve an EX-stage operand through the bypass network.

        Returns (value, source) with source in none/exmem/memwb.  The
        EX/MEM tap reads the ALU-out latch -- for loads that is the
        effective address, never the data, which is why a correct
        design interlocks instead of forwarding that case.
        """
        if reg == 0:
            return 0, "none"
        exmem_hit = (
            self.ex_mem is not None
            and self.ex_mem.instr.writes_reg
            and self.ex_mem.instr.dest == reg
        )
        memwb_hit = (
            self.mem_wb is not None
            and self.mem_wb.instr.writes_reg
            and self.mem_wb.instr.dest == reg
        )
        # Dropping a hit matters when it is the one the correct design
        # takes; inverting the priority, when both taps hit.
        drop_exmem = self._bug("no_forward_exmem", exmem_hit)
        drop_memwb = self._bug("no_forward_memwb", memwb_hit and not exmem_hit)
        older_wins = self._bug(
            "wrong_forward_priority", exmem_hit and memwb_hit
        )
        exmem_hit = exmem_hit and not drop_exmem
        memwb_hit = memwb_hit and not drop_memwb
        if older_wins and memwb_hit:
            return self.mem_wb.value, "memwb"
        if exmem_hit:
            assert self.ex_mem is not None
            if self.ex_mem.instr.is_load and not self.bugs.any_active():
                raise ExecutionError(
                    "load-use forwarding from EX/MEM reached with the "
                    "interlock enabled -- hazard logic broken"
                )
            return self.ex_mem.value, "exmem"
        if memwb_hit:
            assert self.mem_wb is not None
            return self.mem_wb.value, "memwb"
        return fallback, "none"

    def _branch_zero(self, forwarded_value: int) -> bool:
        """The EX branch-test result, oracle-forced when provided."""
        if (
            self._branch_oracle is not None
            and self._branch_index < len(self._branch_oracle)
        ):
            result = self._branch_oracle[self._branch_index]
            self._branch_index += 1
            return result
        self._branch_index += 1
        return forwarded_value == 0

    def _interlock_needed(self) -> bool:
        """Load-use hazard between the load in EX and the reader in ID."""
        hazard = rs1_hazard = False
        if (
            self.id_ex is not None
            and self.id_ex.instr.is_load
            and self.id_ex.instr.dest != 0
            and self.if_id is not None
        ):
            dest = self.id_ex.instr.dest
            sources = self.if_id.instr.sources
            hazard = dest in sources
            rs1_hazard = dest in sources[:1]
        # Dropping the interlock matters on any hazard; checking rs1
        # only, on a hazard through rs2 alone.
        dropped = self._bug("disable_interlock", hazard)
        rs1_only = self._bug(
            "interlock_misses_rs2", hazard and not rs1_hazard
        )
        if dropped:
            return False
        return rs1_hazard if rs1_only else hazard

    # ------------------------------------------------------------------
    # One clock cycle
    # ------------------------------------------------------------------
    def cycle(self) -> None:
        """Advance the pipeline by one clock."""
        if self.halted:
            return
        self.cycle_count += 1

        # ---------------- WB (uses last cycle's MEM/WB latch) ----------
        wb = self.mem_wb
        if wb is not None:
            instr = wb.instr
            op = instr.op
            if instr.writes_reg:
                self.write_reg(instr.dest, wb.value)
            immediate = op.is_alu and op.format is Format.I
            skips = self._bug("psw_skips_immediates", immediate)
            if op.is_alu and not (skips and immediate):
                self.psw = PSW.of(wb.value)
            self.checkpoints.append(
                Checkpoint(
                    index=self.retired,
                    instruction=instr,
                    pc_after=wb.next_pc,
                    # r0 stays 0: write_reg never writes it.
                    regs=tuple(self.regs),
                    psw=self.psw,
                    mem_write=wb.mem_write,
                )
            )
            self.retired += 1
            self.latencies.append(
                (instr, self.cycle_count - self.issue_cycle.get(wb.seq, 0))
            )
            if op.halts:
                self.halted = True

        # ---------------- MEM -----------------------------------------
        # Each stage spells out every field of the latch it passes on:
        # dataclasses.replace would walk the fields on every call, and
        # a run makes two or three latches a cycle.
        mem_out: Optional[_InFlight] = None
        if self.ex_mem is not None:
            stage = self.ex_mem
            instr = stage.instr
            value, mem_write = stage.value, stage.mem_write
            if instr.is_load:
                value = self.memory.get(stage.value & WORD_MASK, 0)
            elif instr.is_store:
                address = stage.value & WORD_MASK
                data = stage.store_data & WORD_MASK
                self.memory[address] = data
                mem_write = (address, data)
            mem_out = _InFlight(
                instr, stage.pc, stage.seq, a=stage.a, b=stage.b,
                store_data=stage.store_data, value=value,
                next_pc=stage.next_pc, taken=stage.taken, mem_write=mem_write,
            )

        # ---------------- EX -------------------------------------------
        ex_out: Optional[_InFlight] = None
        redirect: Optional[int] = None
        fwd_a = fwd_b = fwd_store = "none"
        branch_taken = False
        ex_a_zero = False
        if self.id_ex is not None:
            stage = self.id_ex
            instr = stage.instr
            op = instr.op
            a, fwd_a = self._forward(instr.rs1 if op.reads else 0, stage.a)
            ex_a_zero = a == 0
            next_pc = stage.pc + 1
            value = 0
            store_data = stage.store_data
            taken = False
            if op.is_alu:
                if op.format is Format.R:
                    b, fwd_b = self._forward(instr.rs2, stage.b)
                else:
                    b = instr.imm
                value = alu(op, a, b)
            elif op.is_load:
                value = (a + instr.imm) & WORD_MASK  # effective address
            elif op.is_store:
                value = (a + instr.imm) & WORD_MASK
                forwarded, source = self._forward(
                    instr.rs2, stage.store_data
                )
                # Leaving store data off the network matters when the
                # network would have supplied it.
                if not self._bug("no_store_data_forward", source != "none"):
                    store_data, fwd_store = forwarded, source
            elif op.is_branch:
                taken = self._branch_zero(a)
                if not op.taken_if_zero:
                    taken = not taken
                if taken:
                    next_pc = stage.pc + 1 + instr.imm
            elif op.is_jump:
                taken = True
                # JR/JALR go where the register they read points; J/JAL
                # jump by their offset.
                next_pc = a if op.reads else stage.pc + 1 + instr.imm
            # NOP/HALT: nothing to compute.
            if op.is_link:
                # A wrong link PC changes every link value.
                wrong = self._bug("jal_links_wrong_pc", True)
                value = stage.pc + (2 if wrong else 1)
            branch_taken = taken
            if taken:
                redirect = next_pc
            ex_out = _InFlight(
                instr, stage.pc, stage.seq, a=stage.a, b=stage.b,
                store_data=store_data, value=value, next_pc=next_pc,
                taken=taken, mem_write=stage.mem_write,
            )

        # ---------------- ID (interlock + register read) ---------------
        stall = self._interlock_needed()
        id_out: Optional[_InFlight] = None
        if self.if_id is not None and not stall:
            stage = self.if_id
            instr = stage.instr
            operand_b = self.read_reg(instr.rs2)
            id_out = _InFlight(
                instr, stage.pc, stage.seq, a=self.read_reg(instr.rs1),
                b=operand_b, store_data=operand_b, value=stage.value,
                next_pc=stage.next_pc, taken=stage.taken,
                mem_write=stage.mem_write,
            )

        # ---------------- Squash decisions -----------------------------
        # A taken control transfer resolved in EX leaves two wrong-path
        # instructions behind it: the one decoded this cycle (id_out)
        # and the one fetched this cycle.  A correct design kills both;
        # the squash bugs let one or both survive, which matters only
        # when there is an instruction to spare.
        squash = redirect is not None
        doomed = squash and id_out is not None
        spare_one = self._bug("squash_only_one", doomed)
        spare_all = self._bug("no_squash", doomed)
        if squash and not (spare_one or spare_all):
            id_out = None

        # ---------------- IF -------------------------------------------
        fetch_out: Optional[_InFlight] = None
        fetch_pc = self.pc
        new_pc = self.pc
        halt_inflight = any(
            latch is not None and latch.instr.op.halts
            for latch in (self.if_id, self.id_ex, self.ex_mem, self.mem_wb)
        )
        if stall:
            new_pc = self.pc  # hold fetch; IF/ID keeps its instruction
        else:
            can_fetch = (
                not halt_inflight and 0 <= self.pc < len(self.program)
            )
            if can_fetch:
                instr = self.program[self.pc]
                fetch_out = _InFlight(
                    instr=instr, pc=self.pc, seq=self._fetch_seq
                )
                self.issue_cycle[self._fetch_seq] = self.cycle_count
                self._fetch_seq += 1
                new_pc = self.pc + 1
            if redirect is not None:
                # All variants redirect the PC; only the correct design
                # (and squash_only_one) also kills this cycle's fetch.
                new_pc = redirect
                if not self._bug("no_squash", fetch_out is not None):
                    fetch_out = None

        # ---------------- Latch updates --------------------------------
        self.trace.append(
            ControlTrace(
                cycle=self.cycle_count,
                stall=stall,
                squash=squash,
                fwd_a=fwd_a,
                fwd_b=fwd_b,
                fwd_store=fwd_store,
                branch_taken=branch_taken,
                id_valid=self.if_id is not None,
                ex_valid=self.id_ex is not None,
                mem_valid=self.ex_mem is not None,
                wb_valid=wb is not None,
                ex_is_load=self.id_ex is not None
                and self.id_ex.instr.is_load,
                fetched=fetch_out.instr if fetch_out is not None else None,
                can_fetch=not stall
                and not halt_inflight
                and 0 <= fetch_pc < len(self.program),
                ex_a_zero=ex_a_zero,
            )
        )
        self.mem_wb = mem_out
        self.ex_mem = ex_out
        self.id_ex = id_out
        if not stall:
            self.if_id = fetch_out  # on stall, IF/ID holds its instruction
        self.pc = new_pc

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 500_000) -> List[Checkpoint]:
        """Run to HALT retirement; returns the checkpoint stream.

        Raises
        ------
        ExecutionError
            If the pipeline does not halt within ``max_cycles`` (buggy
            variants may livelock; callers of fault campaigns catch
            this and count it as a detection, since the correct design
            always halts).
        """
        for _cycle in range(max_cycles):
            self.cycle()
            if self.halted:
                return self.checkpoints
        raise ExecutionError(
            f"pipeline did not halt within {max_cycles} cycles"
        )

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction (diagnostics)."""
        if not self.retired:
            return float("nan")
        return self.cycle_count / self.retired

    def max_latency(self) -> int:
        """Worst observed fetch-to-retire latency -- the pipeline's
        empirical ``k`` for Requirement 2."""
        if not self.latencies:
            return 0
        return max(lat for _instr, lat in self.latencies)

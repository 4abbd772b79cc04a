"""The DLX pipeline control path as a bit-level netlist.

This is the initial abstract test model of Figure 3(a): the design
with all datapath modules removed, leaving "individual controllers for
the 5 stages of the pipeline, the interlock unit and the multiplexor
used for selecting the branch test result", with the signals from/to
the datapath (including the instruction word) modelled as primary
inputs/outputs.

Structure (register groups, totalling 160 state elements like the
paper's initial model):

====================================  =====
pipeline instruction registers         84
  (op6+rs1/rs2/rd5 x ID/EX/MEM/WB)
stage valid bits                        4
fetch controller (one-hot)              4
decode/execute/memory/writeback
  controllers (one-hot, 4 each)        16
interlock unit (private copies of
  load flag, dest addresses, write
  flags)                               18
PSW shadow flags                        2
synchronizing output latches           32
====================================  =====

Primary inputs: the decoded instruction fields (op, rs1, rs2, rd --
immediates already dropped, per Section 7.1's reduced format), the
branch-test result ``data_zero`` from the branch-select mux, the PSW
flag values from the datapath, memory/icache handshakes and a fetch
enable.  Primary outputs: the 32 latched control signals to the
datapath.

The netlist's control decisions are checked cycle-for-cycle against
the Python pipeline's :class:`~repro.dlx.pipeline.ControlTrace` in the
test suite -- the "derive the test model from the implementation"
faithfulness link.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..rtl.expr import (
    Expr,
    FALSE,
    TRUE,
    and_,
    bv_const,
    bv_eq,
    bv_eq_const,
    bv_vars,
    mux,
    not_,
    or_,
)
from ..rtl.netlist import Netlist
from .isa import ALU_IMM_OPS, OPCODES, Op

# Opcode constants used by the decoders.
OP_RTYPE = 0x00
OP_LW = OPCODES[Op.LW]
OP_SW = OPCODES[Op.SW]
OP_BEQZ = OPCODES[Op.BEQZ]
OP_BNEZ = OPCODES[Op.BNEZ]
OP_J = OPCODES[Op.J]
OP_JAL = OPCODES[Op.JAL]
OP_JR = OPCODES[Op.JR]
OP_JALR = OPCODES[Op.JALR]
OP_LHI = OPCODES[Op.LHI]
IMM_OPCODES = tuple(sorted(OPCODES[op] for op in ALU_IMM_OPS))

STAGES = ("id", "ex", "mem", "wb")

# The 32 synchronized control outputs: (name, width).  The *_phase
# signals export each stage controller's state (binary-coded) to the
# datapath muxing.
OUTPUT_SIGNALS: Tuple[Tuple[str, int], ...] = (
    ("stall", 1),
    ("squash", 1),
    ("fwd_a", 2),
    ("fwd_b", 2),
    ("fwd_st", 2),
    ("branch_taken", 1),
    ("reg_write", 1),
    ("mem_read", 1),
    ("mem_write", 1),
    ("alu_src", 1),
    ("wb_sel", 2),
    ("dest", 5),
    ("alu_op", 4),
    ("dctl_phase", 2),
    ("ectl_phase", 2),
    ("mctl_phase", 2),
    ("wctl_phase", 2),
)


class StageFields:
    """The instruction-field registers of one pipeline stage, with the
    decode signals the control logic derives from them."""

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.op = bv_vars(f"{stage}_op", 6)
        self.rs1 = bv_vars(f"{stage}_rs1", 5)
        self.rs2 = bv_vars(f"{stage}_rs2", 5)
        self.rd = bv_vars(f"{stage}_rd", 5)
        self.valid = bv_vars(f"v_{stage}", 1)[0]

    # -- decode ---------------------------------------------------------
    def op_is(self, code: int) -> Expr:
        return bv_eq_const(self.op, code)

    @property
    def is_rtype(self) -> Expr:
        return self.op_is(OP_RTYPE)

    @property
    def is_imm(self) -> Expr:
        return or_(*(self.op_is(c) for c in IMM_OPCODES))

    @property
    def is_load(self) -> Expr:
        return self.op_is(OP_LW)

    @property
    def is_store(self) -> Expr:
        return self.op_is(OP_SW)

    @property
    def is_beqz(self) -> Expr:
        return self.op_is(OP_BEQZ)

    @property
    def is_bnez(self) -> Expr:
        return self.op_is(OP_BNEZ)

    @property
    def is_jump(self) -> Expr:
        return or_(
            self.op_is(OP_J), self.op_is(OP_JAL),
            self.op_is(OP_JR), self.op_is(OP_JALR),
        )

    @property
    def is_link(self) -> Expr:
        return or_(self.op_is(OP_JAL), self.op_is(OP_JALR))

    @property
    def dest(self) -> Tuple[Expr, ...]:
        """Destination register number: R31 for link jumps, rd else."""
        return tuple(
            mux(self.is_link, c, r)
            for c, r in zip(bv_const(5, 31), self.rd)
        )

    @property
    def dest_nonzero(self) -> Expr:
        return or_(*self.dest)

    @property
    def writes(self) -> Expr:
        """Writes a register (and the destination is not R0)."""
        write_class = or_(
            self.is_rtype, self.is_imm, self.is_load, self.is_link
        )
        return and_(self.valid, write_class, self.dest_nonzero)

    @property
    def uses_rs1(self) -> Expr:
        """Reads its first source operand (LHI and jumps J/JAL do not)."""
        return and_(
            or_(
                self.is_rtype,
                and_(self.is_imm, not_(self.op_is(OP_LHI))),
                self.is_load,
                self.is_store,
                self.is_beqz,
                self.is_bnez,
                self.op_is(OP_JR),
                self.op_is(OP_JALR),
            ),
            self.valid,
        )

    @property
    def uses_rs2(self) -> Expr:
        """Reads its second source operand (R-type b, store data)."""
        return and_(or_(self.is_rtype, self.is_store), self.valid)

    @property
    def is_psw_op(self) -> Expr:
        return or_(self.is_rtype, self.is_imm)


def _add_vec_registers(net: Netlist, prefix: str, width: int) -> None:
    for i in range(width):
        net.add_register(f"{prefix}[{i}]")


def build_control_netlist() -> Netlist:
    """Construct the initial (160-latch) DLX control test model."""
    net = Netlist("dlx-control")

    # ---------------- primary inputs -------------------------------
    in_op = bv_vars("in_op", 6)
    in_rs1 = bv_vars("in_rs1", 5)
    in_rs2 = bv_vars("in_rs2", 5)
    in_rd = bv_vars("in_rd", 5)
    for vec in (in_op, in_rs1, in_rs2, in_rd):
        for bit in vec:
            net.add_input(bit.name)
    data_zero = net.add_input("data_zero")
    psw_zero_in = net.add_input("psw_zero_in")
    psw_neg_in = net.add_input("psw_neg_in")
    mem_ready = net.add_input("mem_ready")
    icache_ready = net.add_input("icache_ready")
    fetch_en = net.add_input("fetch_en")

    # ---------------- registers ------------------------------------
    stages: Dict[str, StageFields] = {}
    for stage in STAGES:
        for prefix in ("op", "rs1", "rs2", "rd"):
            width = 6 if prefix == "op" else 5
            _add_vec_registers(net, f"{stage}_{prefix}", width)
        net.add_register(f"v_{stage}[0]")
        stages[stage] = StageFields(stage)
    sid, sex, smem, swb = (stages[s] for s in STAGES)

    # Fetch controller, one-hot: RUN (reset), WAIT, HOLD, FLUSH.
    f_run = net.add_register("fctl_run", init=True)
    f_wait = net.add_register("fctl_wait")
    f_hold = net.add_register("fctl_hold")
    f_flush = net.add_register("fctl_flush")

    # Decode / execute / memory / writeback controllers, one-hot:
    # IDLE (reset), RUN, STALL, FLUSH -- 4 latches each.
    ctl_bits: Dict[str, Tuple[Expr, ...]] = {}
    for unit in ("dctl", "ectl", "mctl", "wctl"):
        bits = [
            net.add_register(f"{unit}_idle", init=True),
            net.add_register(f"{unit}_run"),
            net.add_register(f"{unit}_stall"),
            net.add_register(f"{unit}_flush"),
        ]
        ctl_bits[unit] = tuple(bits)

    # Interlock unit private registers (18).
    il_load_ex = net.add_register("il_load_ex")
    il_dest_ex = [net.add_register(f"il_dest_ex[{i}]") for i in range(5)]
    il_write_mem = net.add_register("il_write_mem")
    il_dest_mem = [net.add_register(f"il_dest_mem[{i}]") for i in range(5)]
    il_write_wb = net.add_register("il_write_wb")
    il_dest_wb = [net.add_register(f"il_dest_wb[{i}]") for i in range(5)]

    # PSW shadow flags.
    psw_zero_q = net.add_register("psw_zero_q")
    psw_neg_q = net.add_register("psw_neg_q")

    # Synchronizing output latches (32).
    for name, width in OUTPUT_SIGNALS:
        for i in range(width):
            net.add_register(f"q_{name}[{i}]")

    # ---------------- combinational control ------------------------
    fetch_valid = and_(or_(f_run, f_hold), icache_ready, fetch_en)

    # Interlock: load in EX whose destination is read in ID.
    il_dest = tuple(il_dest_ex)
    stall = and_(
        il_load_ex,
        or_(*il_dest),
        or_(
            and_(sid.uses_rs1, bv_eq(il_dest, sid.rs1)),
            and_(sid.uses_rs2, bv_eq(il_dest, sid.rs2)),
        ),
    )

    # Branch resolution in EX (the branch-select mux of Fig. 3(a)).
    branch_taken = and_(
        sex.valid,
        or_(
            and_(sex.is_beqz, data_zero),
            and_(sex.is_bnez, not_(data_zero)),
            sex.is_jump,
        ),
    )
    squash = branch_taken

    # Bypass network selects (priority: EX/MEM over MEM/WB).
    def fwd_select(src_field, uses) -> Tuple[Expr, Expr]:
        """(bit0, bit1): 01 = EX/MEM, 10 = MEM/WB, 00 = register file."""
        exmem_hit = and_(
            il_write_mem, bv_eq(tuple(il_dest_mem), src_field), uses
        )
        memwb_hit = and_(
            il_write_wb, bv_eq(tuple(il_dest_wb), src_field), uses,
            not_(exmem_hit),
        )
        return exmem_hit, memwb_hit

    fwd_a0, fwd_a1 = fwd_select(sex.rs1, sex.uses_rs1)
    fwd_b0, fwd_b1 = fwd_select(sex.rs2, and_(sex.is_rtype, sex.valid))
    fwd_st0, fwd_st1 = fwd_select(sex.rs2, and_(sex.is_store, sex.valid))

    # Datapath control signals.
    reg_write = swb.writes
    mem_read = and_(smem.valid, smem.is_load)
    mem_write = and_(smem.valid, smem.is_store)
    alu_src = and_(
        sex.valid, or_(sex.is_imm, sex.is_load, sex.is_store)
    )
    wb_sel0 = and_(swb.valid, swb.is_load)
    wb_sel1 = and_(swb.valid, swb.is_link)

    # Stage-controller phase exports: 00=IDLE, 10=RUN, 11=STALL, 01=FLUSH.
    def phase_bits(unit: str) -> List[Expr]:
        _idle, run, stl, flu = ctl_bits[unit]
        return [or_(run, stl), or_(stl, flu)]

    combinational: Dict[str, List[Expr]] = {
        "stall": [stall],
        "squash": [squash],
        "fwd_a": [fwd_a0, fwd_a1],
        "fwd_b": [fwd_b0, fwd_b1],
        "fwd_st": [fwd_st0, fwd_st1],
        "branch_taken": [branch_taken],
        "reg_write": [reg_write],
        "mem_read": [mem_read],
        "mem_write": [mem_write],
        "alu_src": [alu_src],
        "wb_sel": [wb_sel0, wb_sel1],
        "dest": list(swb.dest),
        "alu_op": list(sex.op[:4]),
        "dctl_phase": phase_bits("dctl"),
        "ectl_phase": phase_bits("ectl"),
        "mctl_phase": phase_bits("mctl"),
        "wctl_phase": phase_bits("wctl"),
    }

    # ---------------- next-state logic -----------------------------
    # ID stage: hold on stall, load the fetched fields otherwise; the
    # valid bit also dies on squash.
    for i in range(6):
        net.set_next(
            f"id_op[{i}]", mux(stall, sid.op[i], in_op[i])
        )
    for vec_in, vec_q in ((in_rs1, sid.rs1), (in_rs2, sid.rs2), (in_rd, sid.rd)):
        for i in range(5):
            net.set_next(
                vec_q[i].name, mux(stall, vec_q[i], vec_in[i])
            )
    net.set_next(
        "v_id[0]",
        mux(stall, sid.valid, and_(fetch_valid, not_(squash))),
    )

    # EX stage: bubble on stall or squash, advance from ID otherwise.
    for src_vec, dst_vec in (
        (sid.op, sex.op), (sid.rs1, sex.rs1),
        (sid.rs2, sex.rs2), (sid.rd, sex.rd),
    ):
        for src, dst in zip(src_vec, dst_vec):
            net.set_next(dst.name, src)
    net.set_next(
        "v_ex[0]", and_(sid.valid, not_(stall), not_(squash))
    )

    # MEM and WB stages always advance.
    for src_stage, dst_stage in ((sex, smem), (smem, swb)):
        for src_vec, dst_vec in (
            (src_stage.op, dst_stage.op),
            (src_stage.rs1, dst_stage.rs1),
            (src_stage.rs2, dst_stage.rs2),
            (src_stage.rd, dst_stage.rd),
        ):
            for src, dst in zip(src_vec, dst_vec):
                net.set_next(dst.name, src)
        net.set_next(f"v_{dst_stage.stage}[0]", src_stage.valid)

    # Fetch controller.  A squash redirects fetch *within* the cycle
    # (predict-not-taken recovery), so RUN survives it; FLUSH is only
    # entered when a squash arrives while an instruction fetch is
    # outstanding (WAIT), to abandon it.
    net.set_next(
        "fctl_run",
        or_(
            and_(f_run, icache_ready, not_(stall)),
            and_(f_wait, icache_ready, not_(squash)),
            and_(f_hold, not_(stall)),
            f_flush,
        ),
    )
    net.set_next(
        "fctl_wait",
        or_(
            and_(f_run, not_(icache_ready)),
            and_(f_wait, not_(icache_ready), not_(squash)),
        ),
    )
    net.set_next(
        "fctl_hold",
        or_(
            and_(f_run, icache_ready, stall),
            and_(f_hold, stall),
        ),
    )
    net.set_next("fctl_flush", and_(f_wait, squash))

    # Stage controllers: IDLE / RUN / STALL / FLUSH, one-hot.  The
    # next-state of each phase is the transition condition fanned out
    # over the current one-hot state vector -- the standard one-hot FSM
    # structure (every next-state bit reads the state register ring).
    def set_controller(unit: str, valid: Expr, stalled: Expr, flushed: Expr):
        idle, run, stl, flu = ctl_bits[unit]
        ring = or_(idle, run, stl, flu)
        go_run = and_(valid, not_(stalled), not_(flushed))
        go_idle = and_(not_(valid), not_(stalled), not_(flushed))
        net.set_next(f"{unit}_idle", and_(ring, go_idle))
        net.set_next(f"{unit}_run", and_(ring, go_run))
        net.set_next(f"{unit}_stall", and_(ring, stalled))
        net.set_next(f"{unit}_flush", and_(ring, flushed, not_(stalled)))

    set_controller("dctl", sid.valid, stall, squash)
    set_controller("ectl", sex.valid, stall, squash)
    set_controller(
        "mctl",
        or_(mem_read, mem_write),
        and_(or_(mem_read, mem_write), not_(mem_ready)),
        FALSE,
    )
    set_controller("wctl", swb.valid, FALSE, FALSE)

    # Interlock unit: private mirrors of next-cycle EX/MEM/WB facts.
    advance_id = and_(sid.valid, not_(stall), not_(squash))
    net.set_next("il_load_ex", and_(advance_id, sid.is_load))
    for i in range(5):
        net.set_next(f"il_dest_ex[{i}]", sid.dest[i])
    net.set_next("il_write_mem", sex.writes)
    for i in range(5):
        net.set_next(f"il_dest_mem[{i}]", sex.dest[i])
    net.set_next("il_write_wb", smem.writes)
    for i in range(5):
        net.set_next(f"il_dest_wb[{i}]", smem.dest[i])

    # PSW shadow: capture the datapath flags when an ALU op retires.
    psw_capture = and_(swb.valid, swb.is_psw_op)
    net.set_next("psw_zero_q", mux(psw_capture, psw_zero_in, psw_zero_q))
    net.set_next("psw_neg_q", mux(psw_capture, psw_neg_in, psw_neg_q))

    # Synchronizing output latches and the primary outputs they drive.
    for name, width in OUTPUT_SIGNALS:
        exprs = combinational[name]
        assert len(exprs) == width
        for i in range(width):
            net.set_next(f"q_{name}[{i}]", exprs[i])
            from ..rtl.expr import Var

            net.add_output(f"{name}[{i}]", Var(f"q_{name}[{i}]"))

    net.validate()
    return net


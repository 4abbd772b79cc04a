"""Derivation of the DLX test model (Section 7.1, Figure 3(b)).

Starting from the 160-latch control netlist of
:mod:`repro.dlx.control` -- itself the datapath-removed abstraction of
the pipelined implementation -- this module applies the paper's six
abstraction steps:

1. **no synchronizing latches for outputs** -- inline the 32 output
   latches; control signals become combinational.
2. **remove outputs not affecting control logic** -- keep only the
   control-relevant observables, *add* observation of the interaction
   state Requirement 5 demands (destination-register addresses of the
   current and two previous instructions, and the PSW flags -- the
   paper: "we only need to be careful not to abstract them out"), and
   sweep the dead cones.
3. **fetch controller removed** -- its state becomes free inputs.
4. **4 registers instead of 32** -- tie the high address bits of the
   instruction-field inputs; the corresponding field registers become
   constant and fold away; the interaction-state mirrors of the high
   bits degenerate into duplicated link-tracking bits which merge.
5. **1-hot to binary encoding** -- re-encode the remaining stage
   controllers.
6. **remove interlock registers** -- the interlock unit's private
   copies of EX/MEM facts are provably equal to functions of the
   pipeline-stage registers and are replaced by them; only the
   genuinely stateful WB-history copies remain.

The first four steps are general pipelined-design moves, the last two
specific to this implementation style -- exactly the paper's remark.
Each step is transition-preserving on the retained bits; the test
suite verifies behaviour preservation by lock-step simulation.

The module also provides the *valid-input constraint* (instruction
don't-cares) and a further-reduced **tour model** whose explicit FSM
extraction and transition tours are tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.mealy import MealyMachine
from ..rtl.expr import Expr, Var, and_, bv_eq_const, bv_vars, not_, or_
from ..rtl.netlist import Netlist
from ..rtl.extract import extract_mealy
from ..rtl.transform import (
    AbstractionStep,
    constant_inputs,
    fold_constant_registers,
    free_registers,
    inline_registers,
    keep_outputs,
    merge_duplicate_registers,
    reencode_onehot,
    replace_registers,
    run_pipeline,
    sweep,
)
from .control import OUTPUT_SIGNALS, OPCODES, build_control_netlist
from .isa import Op


# Control-relevant observables kept in step 2 (bit-expanded below).
CONTROL_OUTPUTS = (
    "stall", "squash", "fwd_a", "fwd_b", "fwd_st", "branch_taken",
    "dctl_phase", "ectl_phase", "mctl_phase", "wctl_phase",
)


def _bit_names(signals: Iterable[str]) -> List[str]:
    widths = dict(OUTPUT_SIGNALS)
    names = []
    for sig in signals:
        names.extend(f"{sig}[{i}]" for i in range(widths[sig]))
    return names


def step1_desynchronize(net: Netlist) -> Netlist:
    """Inline the 32 synchronizing output latches."""
    latches = [
        f"q_{name}[{i}]" for name, width in OUTPUT_SIGNALS for i in range(width)
    ]
    return inline_registers(net, latches)


def step2_control_observables(net: Netlist) -> Netlist:
    """Keep control outputs, observe the interaction state, sweep.

    The added observations realize Requirement 5: the destination
    addresses of the current and two previous register-writing
    instructions (the interlock history) and the PSW flags become
    primary outputs, so the functional simulation can compare them.
    """
    cut = keep_outputs(net, _bit_names(CONTROL_OUTPUTS))
    for i in range(5):
        cut.add_output(f"obs_dest_ex[{i}]", Var(f"il_dest_ex[{i}]"))
        cut.add_output(f"obs_dest_mem[{i}]", Var(f"il_dest_mem[{i}]"))
        cut.add_output(f"obs_dest_wb[{i}]", Var(f"il_dest_wb[{i}]"))
    cut.add_output("obs_psw_zero", Var("psw_zero_q"))
    cut.add_output("obs_psw_neg", Var("psw_neg_q"))
    return sweep(cut)


def step3_remove_fetch_controller(net: Netlist) -> Netlist:
    """Free the fetch controller's state: its bits become inputs."""
    fctl = [n for n in net.register_names if n.startswith("fctl_")]
    return sweep(free_registers(net, fctl))


def step4_four_registers(net: Netlist) -> Netlist:
    """Shrink the register file view from 32 to 4 registers.

    Ties the high three bits of every instruction address field input
    to zero (the reduced instruction format "only 2-bit address fields
    are required for 4 registers"), folds the now-constant field
    registers, and merges the degenerate duplicated interaction-state
    bits that remain.
    """
    high_bits = {}
    for field in ("in_rs1", "in_rs2", "in_rd"):
        for bit in (2, 3, 4):
            name = f"{field}[{bit}]"
            if name in net.inputs:
                high_bits[name] = False
    tied = constant_inputs(net, high_bits)
    folded = fold_constant_registers(tied)
    return merge_duplicate_registers(folded)


def step5_binary_encode(net: Netlist) -> Netlist:
    """Re-encode the surviving one-hot stage controllers in binary.

    States that earlier steps proved unreachable (their one-hot bits
    constant-folded away) are simply absent; the remaining bits of a
    controller are still exactly-one-hot and re-encode to
    ``ceil(log2(n))`` bits.
    """
    current = net
    for unit in ("dctl", "ectl", "mctl", "wctl"):
        group = [
            name
            for state in ("idle", "run", "stall", "flush")
            for name in (f"{unit}_{state}",)
            if name in current.register_names
        ]
        if len(group) >= 2:
            current = reencode_onehot(current, group, f"{unit}_enc")
    return current


def step6_remove_interlock_registers(net: Netlist) -> Netlist:
    """Replace the interlock unit's redundant mirrors of EX/MEM facts.

    Each mirror equals a combinational function of the pipeline-stage
    registers one stage earlier; replacing it removes the latch with no
    behaviour change (Figure 3(b)'s final step).  The WB-history copies
    (`il_*_wb`) carry information no surviving stage register holds and
    stay -- they are the "two previous instructions" interaction state.
    """
    from .control import StageFields

    sex = StageFields("ex")
    smem = StageFields("mem")
    replacements: Dict[str, Expr] = {}
    if "il_load_ex" in net.register_names:
        replacements["il_load_ex"] = and_(sex.valid, sex.is_load)
    for i in range(5):
        name = f"il_dest_ex[{i}]"
        if name in net.register_names:
            replacements[name] = sex.dest[i]
        name = f"il_dest_mem[{i}]"
        if name in net.register_names:
            replacements[name] = smem.dest[i]
    if "il_write_mem" in net.register_names:
        replacements["il_write_mem"] = sex.writes
    # Keep only replacements whose expressions survive in this netlist.
    from ..rtl.expr import support as expr_support

    known = set(net.inputs) | set(net.register_names)
    usable = {
        name: expr
        for name, expr in replacements.items()
        if expr_support(expr) <= known
    }
    replaced = replace_registers(net, usable)
    return merge_duplicate_registers(fold_constant_registers(replaced))


FIG3B_STEPS: Tuple[AbstractionStep, ...] = (
    AbstractionStep("no synchronizing latches for outputs", step1_desynchronize),
    AbstractionStep(
        "remove outputs not affecting control logic", step2_control_observables
    ),
    AbstractionStep("fetch controller removed", step3_remove_fetch_controller),
    AbstractionStep("4 registers instead of 32", step4_four_registers),
    AbstractionStep("1-hot to binary encoding", step5_binary_encode),
    AbstractionStep("remove interlock registers", step6_remove_interlock_registers),
)


def derive_test_model(
    initial: Optional[Netlist] = None,
) -> List[Tuple[str, Netlist]]:
    """Run the full Figure 3(b) abstraction sequence.

    Returns the trail ``[(label, netlist), ...]`` starting with the
    initial 160-latch model and ending with the final test model; the
    latch counts along the trail are this reproduction's Figure 3(b)
    numbers.
    """
    start = initial if initial is not None else build_control_netlist()
    return run_pipeline(start, list(FIG3B_STEPS))


def final_test_model(initial: Optional[Netlist] = None) -> Netlist:
    """Just the final netlist of :func:`derive_test_model`."""
    return derive_test_model(initial)[-1][1]


# ----------------------------------------------------------------------
# Input don't-cares (Section 7.2)
# ----------------------------------------------------------------------
def valid_opcodes() -> Tuple[int, ...]:
    """The distinct opcode encodings of implemented instructions."""
    return tuple(sorted(set(OPCODES.values())))


def valid_input_constraint(net: Netlist) -> Expr:
    """The input-validity predicate over the model's primary inputs.

    Captures the paper's don't-care sources: the opcode field must
    encode an implemented instruction ("invalid instructions"), and
    when the instruction word is not being consumed (``fetch_en`` low)
    the field contents are forced to zero so equivalent no-fetch
    cycles are not multiply counted ("relationships between datapath
    outputs modeled as primary inputs").
    """
    op_bits = bv_vars("in_op", 6)
    known = set(net.inputs)
    op_valid = or_(*(bv_eq_const(op_bits, code) for code in valid_opcodes()))
    field_bits = [
        Var(name)
        for name in net.inputs
        if name.startswith(("in_op", "in_rs1", "in_rs2", "in_rd"))
    ]
    fields_zero = and_(*(not_(b) for b in field_bits))
    fetch_en = Var("fetch_en")
    constraint = or_(
        and_(fetch_en, op_valid), and_(not_(fetch_en), fields_zero)
    )
    from ..rtl.expr import support as expr_support

    missing = expr_support(constraint) - known
    if missing:
        raise ValueError(
            f"constraint references absent inputs {sorted(missing)}"
        )
    return constraint


# ----------------------------------------------------------------------
# The tour model: small enough for explicit tours
# ----------------------------------------------------------------------
TOUR_OPCODES: Tuple[Op, ...] = (
    Op.ADD,   # R-type representative (reads rs1+rs2, writes rd)
    Op.ADDI,  # immediate representative
    Op.LW,    # load (interlock source)
    Op.SW,    # store (address + data read)
    Op.BEQZ,  # conditional branch (data_zero interaction)
    Op.J,     # unconditional jump (squash without data)
    Op.JAL,   # link jump (implicit destination)
    Op.NOP,   # no-op filler
)


# Operand fields each tour opcode actually exercises (the registers it
# reads, rd if it writes rd, and a conditional branch's test result):
# enumerating only these (zeroing the rest) is itself an input
# don't-care reduction -- vectors differing in an unused field drive
# identical control behaviour and need not be separately visited.
_TOUR_FIELDS: Dict[Op, Tuple[str, ...]] = {
    op: op.reads
    + (("rd",) if op.writes_rd else ())
    + (("dz",) if op.is_branch else ())
    for op in (*TOUR_OPCODES, Op.BNEZ)
}


def tour_model_inputs(
    registers: int = 2,
    include_idle: bool = True,
    opcodes: Optional[Tuple[Op, ...]] = None,
) -> List[Dict[str, bool]]:
    """The explicit valid-input vectors for the final test model.

    One instruction-class representative per control behaviour
    (``opcodes``, default TOUR_OPCODES), enumerating ``registers``
    register names over exactly the operand fields each opcode reads
    or writes, and both branch-test results for conditional branches;
    handshakes held ready and the PSW status inputs quiescent.
    ``include_idle`` adds the no-fetch vector.  This is the
    explicit-scale analogue of the paper's 8228-of-2^25 valid set.
    """
    chosen = opcodes if opcodes is not None else TOUR_OPCODES
    vectors: List[Dict[str, bool]] = []

    def base_vector() -> Dict[str, bool]:
        vec = {}
        for i in range(6):
            vec[f"in_op[{i}]"] = False
        for field in ("in_rs1", "in_rs2", "in_rd"):
            for i in range(2):
                vec[f"{field}[{i}]"] = False
        vec.update(
            {
                "data_zero": False,
                "psw_zero_in": False,
                "psw_neg_in": False,
                "mem_ready": True,
                "icache_ready": True,
                "fetch_en": False,
            }
        )
        return vec

    for op in chosen:
        code = OPCODES[op]
        fields = _TOUR_FIELDS.get(op)
        if fields is None:
            raise ValueError(f"{op.value} is not a tour-model opcode")
        reg_fields = [f for f in fields if f != "dz"]
        dz_options = (False, True) if "dz" in fields else (False,)
        span = registers ** len(reg_fields)
        for combo in range(span):
            values = {}
            rest = combo
            for f in reg_fields:
                values[f] = rest % registers
                rest //= registers
            for dz in dz_options:
                vec = base_vector()
                vec["fetch_en"] = True
                for i in range(6):
                    vec[f"in_op[{i}]"] = bool((code >> i) & 1)
                for f in ("rs1", "rs2", "rd"):
                    value = values.get(f, 0)
                    for i in range(2):
                        vec[f"in_{f}[{i}]"] = bool((value >> i) & 1)
                vec["data_zero"] = dz
                vectors.append(vec)
    if include_idle:
        vectors.append(base_vector())
    return vectors


#: Reduced opcode set for the *small* tour model (explicitly
#: tractable end-to-end: extraction, optimal tours, fault campaigns).
SMALL_TOUR_OPCODES: Tuple[Op, ...] = (
    Op.ADD, Op.LW, Op.BEQZ, Op.J, Op.NOP,
)


def tour_netlist(registers: int = 2) -> Netlist:
    """The further-reduced netlist backing the explicit tour model.

    Ties the memory/icache handshakes ready and the freed fetch-
    controller bits idle, and (for ``registers <= 2``) drops the second
    address bit, then constant-folds and sweeps.  This is the
    "explicit-scale" test model: small enough that both explicit
    extraction and pure-Python symbolic traversal handle it, while
    keeping every control behaviour (stall, squash, all bypass paths,
    link writes, PSW capture).
    """
    net = final_test_model()
    tie: Dict[str, bool] = {}
    for name in ("mem_ready", "icache_ready"):
        if name in net.inputs:
            tie[name] = True
    # The freed fetch controller is pinned in its RUN state (fetching
    # proceeds whenever fetch_en allows); the other freed state bits
    # are idle.
    for name in net.inputs:
        if name.startswith("fctl_"):
            tie[name] = name == "fctl_run"
    if registers <= 2:
        for field in ("in_rs1", "in_rs2", "in_rd"):
            name = f"{field}[1]"
            if name in net.inputs:
                tie[name] = False
    reduced = sweep(fold_constant_registers(constant_inputs(net, tie)))
    reduced.name = "dlx-tour-netlist"
    return reduced


def tour_input_constraint(net: Netlist) -> Expr:
    """The valid-input predicate matching :func:`tour_model_inputs`,
    as an expression usable for symbolic traversal of the tour
    netlist."""
    cubes = []
    live = set(net.inputs)
    for vec in tour_model_inputs():
        restricted = {k: v for k, v in vec.items() if k in live}
        lits = [
            Var(name) if value else not_(Var(name))
            for name, value in sorted(restricted.items())
        ]
        cubes.append(and_(*lits))
    # Distinct vectors may collapse after tying; or_ dedups structurally.
    return or_(*cubes)


@dataclass
class TourModel:
    """The explicit DLX test model, labelled with tokens for tour
    generation, and the tables that decode them.

    Attributes
    ----------
    machine:
        The Mealy machine (states ``int``, inputs ``"i<n>"``, outputs
        ``int``).
    input_vectors:
        input label -> the model input-bit vector it stands for.
    output_values:
        output token -> the values of the control and observation
        outputs it stands for, a tuple of bools in
        ``tour_netlist(registers).output_names`` order.
    """

    machine: MealyMachine
    input_vectors: Dict[str, Dict[str, bool]]
    output_values: Dict[int, Tuple[bool, ...]]

    def concrete_vectors(self, labels: Iterable[str]) -> List[Dict[str, bool]]:
        """Decode a tour's input labels back to model input vectors."""
        return [dict(self.input_vectors[label]) for label in labels]


def build_tour_model(
    registers: int = 2,
    max_states: int = 400_000,
    opcodes: Optional[Tuple[Op, ...]] = None,
) -> TourModel:
    """Extract the explicit Mealy test model used for tour generation.

    Further reduces the final Figure 3(b) netlist for explicit
    tractability: address fields restricted to ``registers`` registers
    (low bits only), representative opcodes (``opcodes``, default
    TOUR_OPCODES; pass SMALL_TOUR_OPCODES for the fully tractable
    variant), handshakes tied ready.  The extracted machine's outputs
    are the control signals plus the Requirement 5 observations.
    """
    reduced = tour_netlist(registers)
    vectors = tour_model_inputs(
        registers=min(registers, 2), opcodes=opcodes
    )
    # Drop tied bits; extraction drives vectors that collapse once.
    live = set(reduced.inputs)
    vectors = [
        {k: v for k, v in vec.items() if k in live} for vec in vectors
    ]
    machine = extract_mealy(
        reduced,
        inputs=vectors,
        max_states=max_states,
        name="dlx-tour-model",
        packed=True,
    )
    return TourModel(machine, machine.input_vectors, machine.output_values)


def minimize_tour_model(model: TourModel) -> TourModel:
    """Behaviourally minimize a tour model (states merge, inputs stay).

    Extraction distinguishes states by raw register valuations; many
    are observationally equivalent (e.g. WB-stage opcodes that differ
    only in bits no retained output reads).  Merging them is the
    maximal behaviour-preserving abstraction -- the logical endpoint
    of the Figure 3(b) sequence -- and is what brings the explicit
    model to the paper's scale (thousands of states).  The minimized
    machine keeps the original input labels, so
    :func:`repro.validation.testgen.fill_inputs` applies unchanged.
    """
    from ..core.minimize import _classes, _quotient
    from ..kernel.mealy_kernel import dense_mealy

    machine = model.machine
    dense = dense_mealy(machine)
    blocks = _classes(dense)
    mini = _quotient(
        dense, blocks, range(len(blocks)), machine.name + "-min"
    )
    return TourModel(
        machine=mini,
        input_vectors=dict(model.input_vectors),
        output_values=dict(model.output_values),
    )


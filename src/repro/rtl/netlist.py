"""Synchronous netlists: registers + combinational logic.

Our stand-in for the paper's Verilog/VIS front end.  A
:class:`Netlist` is a single-clock synchronous circuit:

* **primary inputs** -- named bits driven from outside each cycle;
* **registers** (latches, in the paper's terminology) -- named bits
  with an initial value and a next-state expression;
* **primary outputs** -- named combinational expressions.

The paper's test-model derivation is a sequence of *topological*
operations on such a structure ("an abstraction over state variables
can be implemented by removing certain state elements from the
concrete model, and all of the logic associated with only that part"),
implemented in :mod:`repro.rtl.transform`.  The latch counts reported
in Figure 3(b) are exactly ``len(netlist.registers)`` snapshots along
that sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .expr import Const, Expr, ExprError, Var, evaluate, support


class NetlistError(Exception):
    """Raised on structural errors (duplicate names, dangling bits)."""


@dataclass
class Register:
    """One state element: initial value plus next-state expression."""

    name: str
    init: bool
    next: Optional[Expr] = None


class Netlist:
    """A synchronous netlist over named bits.

    Bits live in one namespace: a name is either a primary input or a
    register.  Next-state and output expressions may reference any bit.
    Construction is incremental; :meth:`validate` checks the result is
    closed (no dangling references, every register driven).
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._registers: Dict[str, Register] = {}
        self._outputs: Dict[str, Expr] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Var:
        """Declare a primary input bit; returns its Var."""
        if name in self._inputs or name in self._registers:
            raise NetlistError(f"{self.name}: bit {name!r} already exists")
        self._inputs.append(name)
        return Var(name)

    def add_inputs(self, names: Iterable[str]) -> List[Var]:
        """Declare several inputs in order."""
        return [self.add_input(n) for n in names]

    def add_register(
        self, name: str, init: bool = False, next: Optional[Expr] = None
    ) -> Var:
        """Declare a register; next-state may be set now or later."""
        if name in self._inputs or name in self._registers:
            raise NetlistError(f"{self.name}: bit {name!r} already exists")
        self._registers[name] = Register(name, bool(init), next)
        return Var(name)

    def set_next(self, name: str, next: Expr) -> None:
        """Set (or replace) a register's next-state expression."""
        if name not in self._registers:
            raise NetlistError(f"{self.name}: no register {name!r}")
        self._registers[name].next = next

    def add_output(self, name: str, expr: Expr) -> None:
        """Declare a primary output."""
        if name in self._outputs:
            raise NetlistError(f"{self.name}: output {name!r} already exists")
        self._outputs[name] = expr

    def set_output(self, name: str, expr: Expr) -> None:
        """Set or replace an output expression."""
        self._outputs[name] = expr

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def registers(self) -> Dict[str, Register]:
        return dict(self._registers)

    @property
    def register_names(self) -> Tuple[str, ...]:
        return tuple(self._registers)

    @property
    def outputs(self) -> Dict[str, Expr]:
        return dict(self._outputs)

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(self._outputs)

    def latch_count(self) -> int:
        """Number of state elements -- the Figure 3(b) metric."""
        return len(self._registers)

    def input_count(self) -> int:
        return len(self._inputs)

    def output_count(self) -> int:
        return len(self._outputs)

    def stats(self) -> Dict[str, int]:
        """(latches, inputs, outputs) summary, Section 7.2 style."""
        return {
            "latches": self.latch_count(),
            "inputs": self.input_count(),
            "outputs": self.output_count(),
        }

    def validate(self) -> None:
        """Check the netlist is closed and fully driven.

        Raises
        ------
        NetlistError
            If any register lacks a next-state expression, or any
            expression references an undeclared bit.
        """
        known = set(self._inputs) | set(self._registers)
        nexts = [reg.next for reg in self._registers.values()]
        if all(e is not None for e in nexts) and support(
            *nexts, *self._outputs.values()
        ) <= known:
            return
        # Something is wrong: find the first offending root, in order.
        for reg in self._registers.values():
            if reg.next is None:
                raise NetlistError(
                    f"{self.name}: register {reg.name!r} has no next-state"
                )
            dangling = support(reg.next) - known
            if dangling:
                raise NetlistError(
                    f"{self.name}: next({reg.name}) references undeclared "
                    f"bits {sorted(dangling)}"
                )
        for name, expr in self._outputs.items():
            dangling = support(expr) - known
            if dangling:
                raise NetlistError(
                    f"{self.name}: output {name!r} references undeclared "
                    f"bits {sorted(dangling)}"
                )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def reset_state(self) -> Dict[str, bool]:
        """The register values after reset."""
        return {r.name: r.init for r in self._registers.values()}

    def step(
        self, state: Mapping[str, bool], inputs: Mapping[str, bool]
    ) -> Tuple[Dict[str, bool], Dict[str, bool]]:
        """One clock cycle: returns (next_state, outputs).

        Outputs are combinational functions of the *current* state and
        inputs (Mealy semantics), evaluated before the clock edge.
        """
        env: Dict[str, bool] = {}
        for name in self._inputs:
            if name not in inputs:
                raise NetlistError(
                    f"{self.name}: input {name!r} not driven"
                )
            env[name] = bool(inputs[name])
        for name in self._registers:
            if name not in state:
                raise NetlistError(
                    f"{self.name}: state misses register {name!r}"
                )
            env[name] = bool(state[name])
        outs = {
            name: evaluate(expr, env) for name, expr in self._outputs.items()
        }
        nxt = {}
        for reg in self._registers.values():
            if reg.next is None:
                raise NetlistError(
                    f"{self.name}: register {reg.name!r} has no next-state"
                )
            nxt[reg.name] = evaluate(reg.next, env)
        return nxt, outs

    def run(
        self,
        input_sequence: Iterable[Mapping[str, bool]],
        state: Optional[Mapping[str, bool]] = None,
    ) -> Tuple[List[Dict[str, bool]], Dict[str, bool]]:
        """Run a cycle-by-cycle input sequence from reset (or ``state``).

        Returns (list of per-cycle outputs, final state).

        The structural checks :meth:`step` performs every cycle
        (registers present and driven) are hoisted out of the loop
        here -- the netlist cannot change mid-run, so only the
        per-cycle vectors need checking inside it.
        """
        cur = state if state is not None else self.reset_state()
        env: Dict[str, bool] = {}
        regs: List[Tuple[str, Expr]] = []
        for name, reg in self._registers.items():
            if name not in cur:
                raise NetlistError(
                    f"{self.name}: state misses register {name!r}"
                )
            if reg.next is None:
                raise NetlistError(
                    f"{self.name}: register {reg.name!r} has no next-state"
                )
            env[name] = bool(cur[name])
            regs.append((name, reg.next))
        input_names = self._inputs
        output_items = list(self._outputs.items())
        outs: List[Dict[str, bool]] = []
        for vec in input_sequence:
            for name in input_names:
                if name not in vec:
                    raise NetlistError(
                        f"{self.name}: input {name!r} not driven"
                    )
                env[name] = bool(vec[name])
            outs.append(
                {name: evaluate(expr, env) for name, expr in output_items}
            )
            nxt = [evaluate(expr, env) for _name, expr in regs]
            for (name, _expr), value in zip(regs, nxt):
                env[name] = value
        return outs, {name: env[name] for name, _expr in regs}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def cone_of(self, roots: Iterable[str]) -> FrozenSet[str]:
        """Registers in the transitive fan-in of the given bits.

        Walks support from the named outputs/registers back through
        next-state functions to a fixpoint.  Used by
        :func:`repro.rtl.transform.sweep` to delete logic that no
        longer influences anything -- the "removing ... all of the
        logic associated with only that part" operation.
        """
        pending = set()
        for root in roots:
            if root in self._outputs:
                pending |= support(self._outputs[root])
            elif root in self._registers:
                pending.add(root)
            elif root in self._inputs:
                continue
            else:
                raise NetlistError(f"{self.name}: unknown bit {root!r}")
        cone: set = set()
        while pending:
            name = pending.pop()
            if name in cone or name not in self._registers:
                continue
            cone.add(name)
            nxt = self._registers[name].next
            if nxt is not None:
                pending |= support(nxt) - cone
        return frozenset(cone)

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """A structural copy (expressions are immutable and shared)."""
        dup = Netlist(name or self.name)
        dup._inputs = list(self._inputs)
        dup._registers = {
            n: Register(r.name, r.init, r.next)
            for n, r in self._registers.items()
        }
        dup._outputs = dict(self._outputs)
        return dup

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, latches={self.latch_count()}, "
            f"inputs={self.input_count()}, outputs={self.output_count()})"
        )

"""Bit-level boolean expression trees for the RTL substrate.

The paper's test models are derived from an RTL (Verilog)
implementation by topological operations on state elements and logic
cones.  This module is the combinational half of our stand-in for
that substrate: immutable expression trees over named bits, with
constant-folding smart constructors, evaluation, support computation
and substitution.  :mod:`repro.rtl.netlist` adds registers on top;
:mod:`repro.bdd.boolexpr` compiles these trees to BDDs.

Expressions are built with the factory functions (``and_``, ``or_``,
``not_``, ``xor_``, ``mux``) rather than raw constructors so that
constants propagate at build time -- the "logic associated with only
that part" of removed state disappears on its own once its inputs are
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple, Union


class ExprError(Exception):
    """Raised on malformed expressions or evaluation with missing bits."""


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes.  Immutable and hashable."""

    def __and__(self, other: "Expr") -> "Expr":
        return and_(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return or_(self, other)

    def __xor__(self, other: "Expr") -> "Expr":
        return xor_(self, other)

    def __invert__(self) -> "Expr":
        return not_(self)


@dataclass(frozen=True)
class Const(Expr):
    """A constant bit."""

    value: bool

    def __repr__(self) -> str:
        return "1" if self.value else "0"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Var(Expr):
    """A named bit: a primary input or a register output."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


@dataclass(frozen=True)
class And(Expr):
    args: Tuple[Expr, ...]

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Or(Expr):
    args: Tuple[Expr, ...]

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Xor(Expr):
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} ^ {self.right!r})"


@dataclass(frozen=True)
class Mux(Expr):
    """``sel ? if_true : if_false``."""

    sel: Expr
    if_true: Expr
    if_false: Expr

    def __repr__(self) -> str:
        return f"({self.sel!r} ? {self.if_true!r} : {self.if_false!r})"


# ----------------------------------------------------------------------
# Smart constructors (constant folding)
# ----------------------------------------------------------------------
def const(value: Union[bool, int]) -> Const:
    """The constant bit for a truthy/falsy value."""
    return TRUE if value else FALSE


def var(name: str) -> Var:
    """A named bit."""
    return Var(name)


def not_(e: Expr) -> Expr:
    if isinstance(e, Const):
        return const(not e.value)
    if isinstance(e, Not):
        return e.arg
    return Not(e)


def and_(*es: Expr) -> Expr:
    flat = []
    for e in es:
        if isinstance(e, Const):
            if not e.value:
                return FALSE
            continue
        if isinstance(e, And):
            flat.extend(e.args)
        else:
            flat.append(e)
    uniq = tuple(dict.fromkeys(flat))
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return And(uniq)


def or_(*es: Expr) -> Expr:
    flat = []
    for e in es:
        if isinstance(e, Const):
            if e.value:
                return TRUE
            continue
        if isinstance(e, Or):
            flat.extend(e.args)
        else:
            flat.append(e)
    uniq = tuple(dict.fromkeys(flat))
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return Or(uniq)


def xor_(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        return not_(b) if a.value else b
    if isinstance(b, Const):
        return not_(a) if b.value else a
    if a == b:
        return FALSE
    return Xor(a, b)


def xnor_(a: Expr, b: Expr) -> Expr:
    return not_(xor_(a, b))


def mux(sel: Expr, if_true: Expr, if_false: Expr) -> Expr:
    if isinstance(sel, Const):
        return if_true if sel.value else if_false
    if if_true == if_false:
        return if_true
    if isinstance(if_true, Const) and isinstance(if_false, Const):
        # Both constants and unequal: mux degenerates to sel or ~sel.
        return sel if if_true.value else not_(sel)
    return Mux(sel, if_true, if_false)


def implies_(a: Expr, b: Expr) -> Expr:
    """Material implication ``a -> b``."""
    return or_(not_(a), b)


# ----------------------------------------------------------------------
# Evaluation / analysis / substitution
# ----------------------------------------------------------------------
def evaluate(e: Expr, env: Mapping[str, bool]) -> bool:
    """Evaluate an expression under a bit environment."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise ExprError(f"unbound bit {e.name!r}")
        return bool(env[e.name])
    if isinstance(e, Not):
        return not evaluate(e.arg, env)
    if isinstance(e, And):
        return all(evaluate(a, env) for a in e.args)
    if isinstance(e, Or):
        return any(evaluate(a, env) for a in e.args)
    if isinstance(e, Xor):
        return evaluate(e.left, env) != evaluate(e.right, env)
    if isinstance(e, Mux):
        branch = e.if_true if evaluate(e.sel, env) else e.if_false
        return evaluate(branch, env)
    raise ExprError(f"unknown expression node {type(e).__name__}")


def _children(e: Expr) -> Tuple[Expr, ...]:
    """A gate's operands, in field order (none for constants, bits and
    unknown nodes): the one node-to-children map every DAG walk over
    expressions uses."""
    if isinstance(e, Not):
        return (e.arg,)
    if isinstance(e, (And, Or)):
        return e.args
    if isinstance(e, Xor):
        return (e.left, e.right)
    if isinstance(e, Mux):
        return (e.sel, e.if_true, e.if_false)
    return ()


def support(*exprs: Expr) -> FrozenSet[str]:
    """The set of bit names the expressions depend on (syntactic).

    The expressions are walked as one DAG: a subterm shared within or
    across them is visited once, however many parents it has.
    """
    names = set()
    seen = set()  # ids of visited inner nodes; the roots keep them alive
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
            continue
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        stack.extend(_children(node))
    return frozenset(names)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding with the smart
    constructors (so substituted constants fold through).  A subterm
    shared within ``e`` is rebuilt once."""
    return _substituter(mapping)(e)


def _substituter(mapping: Mapping[str, Expr]) -> Callable[[Expr], Expr]:
    """:func:`substitute` under a fixed ``mapping``, as a function with
    one memo from node ids to rebuilt nodes: every root rewritten
    through it shares the memo, so logic the roots share is rebuilt
    once and stays shared in the result.  The roots must outlive the
    function (an id is unique only among live objects)."""
    memo: Dict[int, Expr] = {}

    def sub(e: Expr) -> Expr:
        if isinstance(e, Var):
            return mapping.get(e.name, e)
        if isinstance(e, Const):
            return e
        key = id(e)
        done = memo.get(key)
        if done is not None:
            return done
        if isinstance(e, Not):
            done = not_(sub(e.arg))
        elif isinstance(e, And):
            done = and_(*map(sub, e.args))
        elif isinstance(e, Or):
            done = or_(*map(sub, e.args))
        elif isinstance(e, Xor):
            done = xor_(sub(e.left), sub(e.right))
        elif isinstance(e, Mux):
            done = mux(sub(e.sel), sub(e.if_true), sub(e.if_false))
        else:
            raise ExprError(f"unknown expression node {type(e).__name__}")
        memo[key] = done
        return done

    return sub


# ----------------------------------------------------------------------
# Bit vectors
# ----------------------------------------------------------------------
BitVec = Tuple[Expr, ...]  # index 0 = least significant bit


def bv_vars(prefix: str, width: int) -> BitVec:
    """A vector of named bits ``prefix[0] .. prefix[width-1]`` (LSB first)."""
    return tuple(Var(f"{prefix}[{i}]") for i in range(width))


def bv_const(width: int, value: int) -> BitVec:
    """A constant vector (LSB first)."""
    if value < 0 or value >= (1 << width):
        raise ExprError(f"value {value} does not fit in {width} bits")
    return tuple(const((value >> i) & 1) for i in range(width))


def bv_eq(a: BitVec, b: BitVec) -> Expr:
    """Bitwise equality of two equal-width vectors."""
    if len(a) != len(b):
        raise ExprError(f"width mismatch: {len(a)} vs {len(b)}")
    return and_(*(xnor_(x, y) for x, y in zip(a, b)))


def bv_eq_const(a: BitVec, value: int) -> Expr:
    """Equality of a vector with an integer constant."""
    return bv_eq(a, bv_const(len(a), value))


def bv_mux(sel: Expr, if_true: BitVec, if_false: BitVec) -> BitVec:
    """Per-bit 2:1 multiplexer."""
    if len(if_true) != len(if_false):
        raise ExprError("mux branch width mismatch")
    return tuple(
        mux(sel, t, f) for t, f in zip(if_true, if_false)
    )


def bv_value(bits: BitVec, env: Mapping[str, bool]) -> int:
    """Evaluate a vector to an integer (LSB first)."""
    return sum(1 << i for i, b in enumerate(bits) if evaluate(b, env))


def bv_assign(prefix: str, width: int, value: int) -> Dict[str, bool]:
    """An environment binding ``prefix[i]`` bits to ``value``'s bits."""
    return {
        f"{prefix}[{i}]": bool((value >> i) & 1) for i in range(width)
    }


def bv_add(a: BitVec, b: BitVec, carry_in: Expr = FALSE) -> Tuple[BitVec, Expr]:
    """Ripple-carry addition; returns (sum bits, carry out)."""
    if len(a) != len(b):
        raise ExprError("adder width mismatch")
    carry = carry_in
    out = []
    for x, y in zip(a, b):
        out.append(xor_(xor_(x, y), carry))
        carry = or_(and_(x, y), and_(carry, xor_(x, y)))
    return tuple(out), carry


def bv_inc(a: BitVec) -> BitVec:
    """Increment modulo 2^width."""
    total, _carry = bv_add(a, bv_const(len(a), 1))
    return total


def onehot_constraint(bits: Sequence[Expr]) -> Expr:
    """Exactly-one-hot predicate over the given bits."""
    terms = []
    for i, hot in enumerate(bits):
        others = [not_(b) for j, b in enumerate(bits) if j != i]
        terms.append(and_(hot, *others))
    return or_(*terms)

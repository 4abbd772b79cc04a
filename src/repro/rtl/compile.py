"""Compiled-code simulation of netlists: the one code generator.

Interpreting expression trees costs a dict lookup and an isinstance
dispatch per node per cycle; explicit FSM extraction of a test model
evaluates millions of cycles, where that overhead dominates.  This
module performs what production simulators call *compiled-code
simulation*, and it is the only place where netlist expressions become
Python.  :func:`_compile_function` walks a function's roots as one
DAG -- one local per distinct gate, structurally equal gates merged --
and ``exec``-s a single straight-line function.  A *render* spells
each gate:

* :func:`_one_lane` over Python bools (``not``, ``and``, ``or``,
  ``!=``, ``t if s else f``) for :func:`compile_positional_step`, the
  one-simulation step function of the stuck-at interpreter oracle and
  of explicit extraction while its queue is narrow;
* :func:`_lane_words` over the bit lanes of integer words (``^ M``,
  ``&``, ``|``, ``^``, and-or mux) for :func:`compile_positional_words`,
  which steps a wide extraction queue's (state, vector) pairs in one
  call, and for the cycle and block functions of
  :mod:`repro.kernel.netlist_kernel`, which simulate many mutants at
  once.

Both are bit-identical to :meth:`~repro.rtl.netlist.Netlist.step`,
the oracle the test suite cross-checks them against.  One simulation
gets its own render because the word form is slower on one lane
(METHODOLOGY section 11 has the measurement).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from .expr import And, Const, Expr, Mux, Not, Or, Var, Xor, _children
from .netlist import Netlist


class CompileError(Exception):
    """Raised on unknown expression nodes and unbound bits."""


#: How a gate is spelled: its Python right-hand side over the locals
#: of its children (a constant has no children and no line of its own).
Render = Callable[[Expr, Sequence[str]], str]


def _one_lane(node: Expr, kids: Sequence[str]) -> str:
    """One simulation on Python bools."""
    if isinstance(node, Const):
        return "True" if node.value else "False"
    if isinstance(node, Not):
        return f"not {kids[0]}"
    if isinstance(node, And):
        return " and ".join(kids)
    if isinstance(node, Or):
        return " or ".join(kids)
    if isinstance(node, Xor):
        return f"{kids[0]} != {kids[1]}"
    if isinstance(node, Mux):
        s, if_true, if_false = kids
        return f"{if_true} if {s} else {if_false}"
    raise CompileError(f"unknown expression node {type(node).__name__}")


def _lane_words(node: Expr, kids: Sequence[str]) -> str:
    """Word-bitwise form, one simulation per bit lane (``M`` = all-lanes
    mask, so NOT is ``x ^ M`` and MUX is and-or selected)."""
    if isinstance(node, Const):
        return "M" if node.value else "0"
    if isinstance(node, Not):
        return f"{kids[0]} ^ M"
    if isinstance(node, And):
        return " & ".join(kids)
    if isinstance(node, Or):
        return " | ".join(kids)
    if isinstance(node, Xor):
        return f"{kids[0]} ^ {kids[1]}"
    if isinstance(node, Mux):
        s, if_true, if_false = kids
        return f"({s} & {if_true}) | (({s} ^ M) & {if_false})"
    raise CompileError(f"unknown expression node {type(node).__name__}")


def _result_source(roots: Sequence[Expr], names: Dict[int, str]) -> str:
    inner = ", ".join(names[id(e)] for e in roots)
    return f"({inner},)" if len(roots) == 1 else f"({inner})"


def _compile_function(
    header: str,
    prologue: Sequence[str],
    bound: Mapping[str, str],
    results: Sequence[Sequence[Expr]],
    label: str,
    render: Render,
) -> Callable[..., Any]:
    """Exec one SSA function over the bits ``bound`` maps to locals.

    ``header`` and ``prologue`` bind those locals; every gate the
    ``results`` reach is emitted once, spelled by ``render``, and the
    function returns one tuple of its roots' values per entry of
    ``results``.  Structurally equal gates share one local: a gate is
    keyed by its type and its children's locals, which by induction are
    equal exactly when the subtrees are, so no subtree is ever hashed.
    """
    names: Dict[int, str] = {}  # id(node) -> local; the roots keep nodes alive
    shapes: Dict[Tuple[type, Tuple[str, ...]], str] = {}
    lines: List[str] = [header, *prologue]
    for roots in results:
        for root in roots:
            stack: List[Tuple[Expr, bool]] = [(root, False)]
            while stack:
                node, emitted = stack.pop()
                key = id(node)
                if key in names:
                    continue
                if isinstance(node, Const):
                    names[key] = render(node, ())
                elif isinstance(node, Var):
                    try:
                        names[key] = bound[node.name]
                    except KeyError:
                        raise CompileError(
                            f"{label}: unbound bit {node.name!r}"
                        ) from None
                elif not emitted:
                    stack.append((node, True))
                    stack.extend((k, False) for k in _children(node))
                else:
                    kids = tuple(names[id(k)] for k in _children(node))
                    shape = (type(node), kids)
                    name = shapes.get(shape)
                    if name is None:
                        name = shapes[shape] = f"t{len(lines)}"
                        lines.append(f"    {name} = {render(node, kids)}")
                    names[key] = name
    lines.append("    return " + ", ".join(
        _result_source(roots, names) for roots in results
    ))
    namespace: Dict[str, Any] = {}
    exec(compile("\n".join(lines), f"<compiled {label}>", "exec"), namespace)
    return namespace[header[4:header.index("(")]]


def compile_positional_step(netlist: Netlist) -> Callable[..., Tuple[tuple, tuple]]:
    """Compile a netlist into a fast ``step(state, inputs)`` function.

    It has the semantics of :meth:`~repro.rtl.netlist.Netlist.step` on
    value tuples: register values in ``register_names`` order and input
    values in ``inputs`` order in, next-state and output
    (``output_names`` order) values out, with Mealy output semantics
    (outputs read the pre-edge state).
    """
    return _positional(netlist, "def _step(state, inputs):", _one_lane)


def compile_positional_words(
    netlist: Netlist,
) -> Callable[..., Tuple[tuple, tuple]]:
    """:func:`compile_positional_step` on lane words:
    ``step(state, inputs, M)`` takes one integer word per register and
    per input, in the same orders, and the all-lanes mask ``M``, and
    returns one word per next state and per output.  Bit lane ``k`` of
    every word is one simulation, so one call steps every lane's
    (state, input vector) pair."""
    return _positional(netlist, "def _words(state, inputs, M):", _lane_words)


def _positional(netlist: Netlist, header: str, render: Render) -> Callable:
    """The step function whose ``header`` binds the input bits from
    ``inputs`` and the register bits from ``state`` by position."""
    netlist.validate()
    n_in = len(netlist.inputs)
    bits = [f"b{k}" for k in range(n_in + netlist.latch_count())]
    prologue = [
        f"    {', '.join(names)}, = {source}"
        for names, source in ((bits[:n_in], "inputs"), (bits[n_in:], "state"))
        if names
    ]
    nexts = [reg.next for reg in netlist.registers.values()]
    outs = list(netlist.outputs.values())
    return _compile_function(
        header,
        prologue,
        dict(zip((*netlist.inputs, *netlist.register_names), bits)),
        (nexts, outs),
        netlist.name,
        render,
    )

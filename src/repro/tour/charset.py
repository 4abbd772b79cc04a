"""State-identification machinery for complete test-suite generation.

Transition tours certify completeness only under the paper's
Requirements 2-5 (forall-k-distinguishability, Definition 5).  The
classical conformance-testing route -- the W, Wp and HSI methods
(Chow; Fujiwara/v.Bochmann/Khendek/Amalou/Ghedamsi; Petrenko/
Yevtushenko) -- drops those structural requirements and instead pays
with *state identification*: after reaching a state, apply input
sequences whose outputs pin down which state the implementation is
really in.  This module provides the building blocks those methods
share:

* :func:`access_sequences` / :func:`state_cover` -- shortest input
  sequences reaching every state from the initial state (the set
  ``Q``, prefix-closed by construction).
* :func:`transition_cover` -- ``Q`` extended by one input in every
  direction (the set ``P``); every transition is the last step of some
  member.
* :func:`characterization_set` -- the ``W`` set: input sequences that
  jointly distinguish every pair of distinct states.
* :func:`state_identifiers` -- per-state subsets ``W_s`` of ``W``
  (the Wp method's identification sets).
* :func:`harmonized_state_identifiers` -- the HSI family ``H_s``:
  for every pair of states the two families share a common sequence
  that distinguishes the pair, which is what lets HSI suites stay
  complete on partially-specified reductions of ``W``.

All constructions are deterministic: states, inputs and candidate
sequences are always visited in ``repr``-sorted order, so two runs
(or two worker processes) derive byte-identical suites.  The
identification sets are computed on the Mealy kernel's dense table
(:func:`~repro.kernel.mealy_kernel.dense_mealy`, memoized per
machine), whose indices are in that order: whether the sequences
collected so far separate a pair is read from one response vector per
sequence (its output tuple from every state), and distinguishing
sequences are walked off the shared pair distances of
:mod:`repro.core.distinguish`.  One breadth-first search yields both
covers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.distinguish import _distinguishing_walk, _pair_distance
from ..core.mealy import Input, MealyError, MealyMachine, State
from ..kernel.mealy_kernel import DenseMealy, dense_mealy

Sequence_ = Tuple[Input, ...]


class SuiteError(Exception):
    """Raised when a machine does not admit the requested suite.

    The W/Wp/HSI constructions need an input-complete (over the valid
    alphabet), initially-connected, minimal specification; the message
    names the violated precondition and the offending states/pairs.
    """


def _require_complete(
    name: str, missing: Sequence[Tuple[State, Input]]
) -> None:
    """Raise :class:`SuiteError` naming the ``missing`` (state, input)
    pairs, if any."""
    if missing:
        raise SuiteError(
            f"{name}: suite generation needs an input-complete "
            f"machine (over its valid-input alphabet); {len(missing)} "
            f"undefined (state, input) pairs, e.g. {missing[0]!r}.  "
            f"Wrap with make_complete() or restrict the alphabet."
        )


def require_complete(machine: MealyMachine) -> None:
    """Raise :class:`SuiteError` unless ``machine`` is input-complete."""
    _require_complete(machine.name, machine.undefined_pairs())


def distinguishes(
    machine: MealyMachine, s1: State, s2: State, seq: Sequence_
) -> bool:
    """True iff ``seq`` produces different outputs from ``s1`` and ``s2``.

    On a complete machine every sequence is defined from every state,
    so this is a plain output-sequence comparison.
    """
    return machine.output_sequence(seq, start=s1) != machine.output_sequence(
        seq, start=s2
    )


def _by_length(seqs: Iterable[Sequence_]) -> List[Sequence_]:
    """``seqs`` sorted by (length, repr): a stable sort by length of a
    sort by ``repr``, with no Python key call per sequence."""
    return sorted(sorted(seqs, key=repr), key=len)


def drop_prefixes(seqs: Iterable[Sequence_]) -> Tuple[Sequence_, ...]:
    """Deduplicate and drop sequences that are proper prefixes of others.

    If ``w`` distinguishes a pair (or exercises a transition), any
    extension of ``w`` does too -- output divergence happens at some
    position inside the prefix -- so dropping prefixes is the standard
    lossless suite reduction.  The result is sorted by (length, repr)
    for determinism.
    """
    uniq = _by_length(set(seqs))
    proper_prefixes = set()
    for s in uniq:
        for i in range(len(s)):
            proper_prefixes.add(s[:i])
    return tuple(s for s in uniq if s not in proper_prefixes)


def access_sequences(
    machine: MealyMachine,
) -> Dict[State, Sequence_]:
    """Shortest input sequence from the initial state to every
    reachable state (breadth-first, inputs in sorted order).

    The empty sequence accesses the initial state; the mapping is
    prefix-closed (every prefix of an access sequence is itself the
    access sequence of the state it reaches).
    """
    acc: Dict[State, Sequence_] = {machine.initial: ()}
    work = deque([machine.initial])
    while work:
        s = work.popleft()
        for inp in sorted(machine.defined_inputs(s), key=repr):
            t = machine.transition(s, inp)
            if t.dst not in acc:
                acc[t.dst] = acc[s] + (inp,)
                work.append(t.dst)
    return acc


def _covers(
    machine: MealyMachine,
) -> Tuple[Tuple[Sequence_, ...], Tuple[Sequence_, ...]]:
    """``(Q, P)``, the state and transition covers, from one
    breadth-first search (see :func:`state_cover` and
    :func:`transition_cover`)."""
    acc = access_sequences(machine)
    missing = sorted(
        (s for s in machine.states if s not in acc), key=repr
    )
    if missing:
        raise SuiteError(
            f"{machine.name}: states {missing} are unreachable from "
            f"{machine.initial!r}; restrict_to_reachable() first"
        )
    q_cover = tuple(_by_length(acc.values()))
    p_cover = set(q_cover)
    for s, seq in acc.items():
        p_cover.update(seq + (inp,) for inp in machine.defined_inputs(s))
    return q_cover, tuple(_by_length(p_cover))


def state_cover(machine: MealyMachine) -> Tuple[Sequence_, ...]:
    """The set ``Q``: one access sequence per reachable state.

    Raises :class:`SuiteError` if some state is unreachable -- an
    unreachable specification state can never be identified by any
    black-box suite.
    """
    return _covers(machine)[0]


def transition_cover(machine: MealyMachine) -> Tuple[Sequence_, ...]:
    """The set ``P``: the state cover plus every one-input extension.

    Every transition ``(s, i)`` of the machine is the final step of the
    member ``access(s) + (i,)``, which is what lets a suite built on
    ``P`` exercise (and then identify the destination of) every
    transition.  Includes ``Q`` itself, so ``P`` is prefix-closed.
    """
    return _covers(machine)[1]


def _responses(
    dense: DenseMealy, seq: Sequence_
) -> Tuple[List[int], Dict[int, str]]:
    """Every state's response to ``seq``: one label per dense state,
    equal for two states exactly when their output tuples compare
    equal (as :func:`distinguishes` compares them), and the
    :class:`MealyError` message of each state whose walk reaches an
    undefined step (its label is then meaningless)."""
    nxt, out, width = dense.nxt, dense.out, dense.n_inputs
    codes = [dense.input_index.get(x, -1) for x in seq]
    ids: Dict[tuple, int] = {}
    labels: List[int] = []
    errors: Dict[int, str] = {}
    for start in range(len(dense.states)):
        outs: List[Any] = []
        s = start
        for x, i in zip(seq, codes):
            k = s * width + i
            if i < 0 or nxt[k] < 0:
                errors[start] = str(dense._undefined(s, x))
                break
            outs.append(out[k])
            s = nxt[k]
        labels.append(ids.setdefault(tuple(outs), len(ids)))
    return labels, errors


def characterization_set(
    machine: MealyMachine,
    table: Optional[Dict] = None,
) -> Tuple[Sequence_, ...]:
    """A characterization set ``W``: sequences jointly distinguishing
    every pair of distinct states.

    Greedy construction over the shared pair distances: pairs are
    visited in sorted order, and a pair not yet separated by the
    sequences collected so far contributes its (lexicographically
    least) shortest distinguishing sequence.  Whether a pair is
    separated is read from one response vector per collected
    sequence, not walked per pair.  The result is prefix-reduced.

    Raises
    ------
    SuiteError
        If some pair of distinct states is equivalent -- the machine is
        not minimal, and no finite ``W`` exists.  Minimize first.
    """
    require_complete(machine)
    dense = dense_mealy(machine)
    states = dense.states
    distance = _pair_distance(dense, table)
    w_set: List[Sequence_] = []
    # States sharing a label are not yet separated by ``w_set``.
    label = [0] * len(states)
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            if label[a] != label[b]:
                continue
            seq = _distinguishing_walk(dense, a, b, distance, machine.name)
            if seq is None:
                raise SuiteError(
                    f"{machine.name}: states {states[a]!r} and "
                    f"{states[b]!r} are equivalent; no characterization "
                    f"set exists.  Minimize the machine first."
                )
            w_set.append(seq)
            ids: Dict[Tuple[int, int], int] = {}
            label = [
                ids.setdefault(pair, len(ids))
                for pair in zip(label, _responses(dense, seq)[0])
            ]
    return drop_prefixes(w_set)


def state_identifiers(
    machine: MealyMachine,
    charset: Optional[Tuple[Sequence_, ...]] = None,
) -> Dict[State, Tuple[Sequence_, ...]]:
    """Per-state identification sets ``W_s`` for the Wp method.

    ``W_s`` is a (greedily minimized) subset of ``W`` that
    distinguishes ``s`` from every other state.  Applying ``W_s``
    after reaching a transition's destination is cheaper than applying
    all of ``W`` -- the Wp method's saving -- while still identifying
    the destination among all specification states.

    Each member of ``W`` is walked once from every state, when first
    needed.  A ``charset`` whose walk from ``s`` or from a state not
    yet separated from ``s`` reaches an undefined step raises that
    step's :class:`MealyError`.
    """
    w_set = characterization_set(machine) if charset is None else charset
    dense = dense_mealy(machine)
    states = dense.states
    n = len(states)
    responses: Dict[int, Tuple[List[int], Dict[int, str]]] = {}
    idents: Dict[State, Tuple[Sequence_, ...]] = {}
    for s in range(n):
        remaining = [t for t in range(n) if t != s]
        chosen: List[Sequence_] = []
        for j, w in enumerate(w_set):
            if not remaining:
                break
            if j not in responses:
                responses[j] = _responses(dense, w)
            labels, errors = responses[j]
            if errors:
                for t in [s] + remaining:
                    if t in errors:
                        raise MealyError(errors[t])
            kept = [t for t in remaining if labels[t] == labels[s]]
            if len(kept) < len(remaining):
                chosen.append(w)
                remaining = kept
        if remaining:
            raise SuiteError(
                f"{machine.name}: characterization set cannot separate "
                f"{states[s]!r} from {[states[t] for t in remaining]}; "
                f"machine is not minimal"
            )
        idents[states[s]] = tuple(chosen)
    return idents


def harmonized_state_identifiers(
    machine: MealyMachine,
) -> Dict[State, Tuple[Sequence_, ...]]:
    """Harmonized state identifiers ``H_s`` (the HSI method's family).

    For every pair of distinct states ``(s, t)`` the same shortest
    distinguishing sequence is placed in both ``H_s`` and ``H_t``, so
    any pair of families shares a common sequence (hence a common
    prefix) that separates the pair -- the harmonization property.
    Each family is then prefix-reduced, which preserves harmonization:
    an extension of a separating sequence still separates.
    """
    require_complete(machine)
    dense = dense_mealy(machine)
    states = dense.states
    distance = _pair_distance(dense)
    fam: Dict[State, List[Sequence_]] = {s: [] for s in states}
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            seq = _distinguishing_walk(dense, a, b, distance, machine.name)
            if seq is None:
                raise SuiteError(
                    f"{machine.name}: states {states[a]!r} and "
                    f"{states[b]!r} are equivalent; no harmonized "
                    f"identifiers exist.  Minimize the machine first."
                )
            fam[states[a]].append(seq)
            fam[states[b]].append(seq)
    return {s: drop_prefixes(seqs) for s, seqs in fam.items()}

"""Dense-table compiled Mealy fault detection.

A :class:`MealyMachine` pays a dict lookup on a ``(state, input)``
tuple key per step.  :class:`DenseMealy` interns states and inputs to
dense integer indices (sorted by ``repr``, the library's canonical
order) and flattens ``delta``/``lambda`` into plain lists indexed by
``state * n_inputs + input`` -- a step becomes array indexing.

On top of that sits the campaign kernel: the specification trajectory
for one test set is computed *once* (state indices, outputs, per-site
visit times and -- for incomplete machines -- the exact step and
message of the first undefined spec step).  Every question about a
valid single fault is then one walk, :func:`_first_divergence`, which
returns the step at which the mutant's outputs first differ from the
spec's:

* an :class:`~repro.core.errors.OutputError` mutant tracks the spec
  state exactly, so it diverges at the first visit of its site;
* a :class:`~repro.core.errors.TransferError` mutant is simulated
  only over its *desynchronized* stretches: from each visit of the
  fault site the walk follows the dense tables until the mutant
  either diverges, resynchronizes (binary-search jump to the next
  site visit), or the test ends.

The verdict is "the walk found a divergence"
(:func:`detect_faults_compiled`) and the detection latency is that
step minus the spec's first visit of the site
(:func:`detection_latency_compiled`).  Both reproduce the
interpreter -- :func:`repro.faults.simulate.compare_runs` verdicts and
:func:`repro.faults.simulate.detection_latency` values, including the
``MealyError`` raised when the *spec* hits an undefined step first --
byte-for-byte; the property suite in
``tests/test_kernel_differential.py`` pins this.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import OutputError, TransferError
from ..core.mealy import Input, MealyError, MealyMachine, Output, State


class DenseMealy:
    """A Mealy machine compiled to flat transition tables."""

    def __init__(self, machine: MealyMachine) -> None:
        # Weak: the compile memo is keyed weakly on the machine, and a
        # strong reference from its value would keep the key alive.
        self._machine = weakref.ref(machine)
        self.states: Tuple[State, ...] = tuple(
            sorted(machine.states, key=repr)
        )
        self.inputs: Tuple[Input, ...] = tuple(
            sorted(machine.inputs, key=repr)
        )
        self.state_index: Dict[State, int] = {
            s: i for i, s in enumerate(self.states)
        }
        self.input_index: Dict[Input, int] = {
            x: i for i, x in enumerate(self.inputs)
        }
        self.n_inputs = len(self.inputs)
        size = len(self.states) * self.n_inputs
        # -1 = undefined (state, input) pair.
        self.nxt: List[int] = [-1] * size
        self.out: List[Optional[Output]] = [None] * size
        for s, si in self.state_index.items():
            row = si * self.n_inputs
            for t in machine.transitions_from(s):
                k = row + self.input_index[t.inp]
                self.nxt[k] = self.state_index[t.dst]
                self.out[k] = t.out
        self.initial = self.state_index[machine.initial]
        self.signature = _machine_signature(machine)
        # One-slot trajectory cache: campaigns replay one test set
        # against thousands of mutants.
        self._trajectory: Optional[Tuple[Tuple[Input, ...], "_Trajectory"]] = None

    def _undefined(self, state_idx: int, inp: Input) -> MealyError:
        # Exact message of MealyMachine.step for byte-identical errors.
        return MealyError(
            f"{self._machine().name}: no transition from "
            f"{self.states[state_idx]!r} on {inp!r}"
        )


class _Trajectory:
    """The spec run of one test set, precomputed for fault replay.

    ``state_idx[t]`` / ``inp_idx[t]`` / ``outs[t]`` describe step
    ``t`` (0-based) for ``t < steps``; ``steps < len(test)`` iff the
    spec itself hits an undefined step there, in which case ``error``
    is the exact :class:`MealyError` message ``compare_runs`` would
    surface at that step.  ``visits`` maps a flat ``state * n_inputs
    + input`` site to the sorted list of step times the spec
    traverses it.
    """

    __slots__ = ("state_idx", "inp_idx", "outs", "steps", "error", "visits")

    def __init__(self, dense: DenseMealy, test: Tuple[Input, ...]) -> None:
        s = dense.initial
        nxt, out, n_inputs = dense.nxt, dense.out, dense.n_inputs
        input_index = dense.input_index
        self.state_idx: List[int] = [s]
        self.inp_idx: List[int] = []
        self.outs: List[Output] = []
        self.error: Optional[str] = None
        self.visits: Dict[int, List[int]] = {}
        for t, inp in enumerate(test):
            i = input_index.get(inp, -1)
            k = s * n_inputs + i
            if i < 0 or nxt[k] < 0:
                self.error = str(dense._undefined(s, inp))
                break
            self.inp_idx.append(i)
            self.outs.append(out[k])
            self.visits.setdefault(k, []).append(t)
            s = nxt[k]
            self.state_idx.append(s)
        self.steps = len(self.inp_idx)


def _trajectory(dense: DenseMealy, inputs: Sequence[Input]) -> _Trajectory:
    # A campaign passes one tuple object to every batch and to every
    # latency query: keep the caller's tuple itself as the key, so a
    # hit is recognised without comparing elements.
    test = inputs if isinstance(inputs, tuple) else tuple(inputs)
    cached = dense._trajectory
    if cached is not None and (cached[0] is test or cached[0] == test):
        return cached[1]
    traj = _Trajectory(dense, test)
    dense._trajectory = (test, traj)
    return traj


def _machine_signature(machine: MealyMachine) -> Tuple[int, int]:
    # Transitions are frozen and the delta map only grows (duplicates
    # raise), so (|S|, |delta|) detects every post-compile mutation.
    return (len(machine), machine.num_transitions())


_DENSE_MEMO: "weakref.WeakKeyDictionary[MealyMachine, DenseMealy]" = (
    weakref.WeakKeyDictionary()
)


def dense_mealy(machine: MealyMachine) -> DenseMealy:
    """Compile (or fetch the memoized compilation of) ``machine``.

    Never attached to the machine itself so campaign payloads stay
    picklable (see :func:`repro.kernel.netlist_kernel.compiled_netlist`).
    """
    cached = _DENSE_MEMO.get(machine)
    if cached is not None and cached.signature == _machine_signature(
        machine
    ):
        return cached
    dense = DenseMealy(machine)
    _DENSE_MEMO[machine] = dense
    return dense


def _fault_site(dense: DenseMealy, fault: Any) -> Optional[Tuple[int, int]]:
    """``(site, wrong)`` for a valid output or transfer fault.

    ``site`` is the flat ``state * n_inputs + input`` index of the
    transition the fault corrupts; ``wrong`` is a transfer fault's
    dense wrong destination and -1 for an output fault, whose mutant
    keeps the spec's.  ``None`` marks an invalid fault or an unknown
    fault type: only the per-fault path raises their authentic
    ``FaultError`` (via ``fault.apply``) or simulates them.
    """
    if isinstance(fault, TransferError):
        wrong = dense.state_index.get(fault.wrong_dst, -1)
        if wrong < 0:
            return None
    elif isinstance(fault, OutputError):
        wrong = -1
    else:
        return None
    si = dense.state_index.get(fault.src, -1)
    ii = dense.input_index.get(fault.inp, -1)
    if si < 0 or ii < 0:
        return None
    site = si * dense.n_inputs + ii
    dst = dense.nxt[site]
    if dst < 0 or dst == wrong:
        return None
    if wrong < 0 and dense.out[site] == fault.wrong_out:
        return None
    return site, wrong


def _first_divergence(
    dense: DenseMealy, traj: _Trajectory, site: int, wrong: int
) -> Optional[int]:
    """0-based step at which the mutant of :func:`_fault_site`'s
    ``(site, wrong)`` first emits an output the spec does not (or
    loses a transition), or ``None`` when the test set ends first.

    Raises the interpreter's ``MealyError`` when the spec reaches an
    undefined step before any divergence: ``compare_runs`` steps the
    spec first, so it raises there before checking the mutant.
    """
    visits = traj.visits.get(site)
    if visits and wrong < 0:
        # An output fault's mutant tracks the spec state exactly, so
        # the first site visit diverges -- and every visit happens
        # strictly before any undefined spec step.
        return visits[0]
    if visits:
        nxt, out, n_inputs = dense.nxt, dense.out, dense.n_inputs
        steps = traj.steps
        spec_state, spec_out, inp_idx = traj.state_idx, traj.outs, traj.inp_idx
        t = visits[0]
        while True:
            # Take the diverted transition at time t (output unchanged)
            # and follow the mutant until it rejoins the spec's state.
            s = wrong
            u = t + 1
            while u < steps and s != spec_state[u]:
                k = s * n_inputs + inp_idx[u]
                n = wrong if k == site else nxt[k]
                if n < 0 or out[k] != spec_out[u]:
                    return u
                s = n
                u += 1
            if u >= steps:
                break  # test set exhausted while desynced
            # Back in sync: behaviour is identical until the next site
            # visit, so jump straight there.
            pos = bisect_left(visits, u)
            if pos == len(visits):
                break
            t = visits[pos]
    if traj.error is not None:
        raise MealyError(traj.error)
    return None


def detect_faults_compiled(
    spec: MealyMachine,
    inputs: Sequence[Input],
    faults: Sequence[Any],
) -> List[Tuple[str, Any]]:
    """Batched verdicts: one ``("ok", bool)`` or ``("err", message)``
    per fault, in order.

    Errors are encoded as the executor's ``"ExcType: message"`` strings
    instead of raised, so one invalid fault in a word-sized batch does
    not poison its batchmates' verdicts.

    Every valid output and transfer fault is decided against the
    batch's one :class:`DenseMealy` and spec trajectory by
    :func:`_first_divergence`.  Invalid faults (and every other fault
    type) go through the interpreter's
    :func:`~repro.faults.simulate.detect_fault`, which raises the
    authentic ``FaultError`` or simulates the mutant.
    """
    from ..faults.simulate import detect_fault
    from ..parallel import TaskTimeout

    dense = dense_mealy(spec)
    traj = _trajectory(dense, inputs)
    results: List[Tuple[str, Any]] = []
    for fault in faults:
        try:
            compiled = _fault_site(dense, fault)
            if compiled is None:
                detected = bool(detect_fault(spec, fault, inputs))
            else:
                detected = (
                    _first_divergence(dense, traj, *compiled) is not None
                )
            results.append(("ok", detected))
        except TaskTimeout:
            # Timeouts force singleton batches, so this is our whole
            # batch: let the executor record it as timed out.
            raise
        except Exception as exc:  # noqa: BLE001 - reported per fault
            results.append(("err", f"{type(exc).__name__}: {exc}"))
    return results


def detection_latency_compiled(
    spec: MealyMachine, fault: Any, inputs: Sequence[Input]
) -> Optional[int]:
    """Compiled twin of :func:`repro.faults.simulate.detection_latency`.

    Until the spec first visits the fault site the mutant runs the
    spec's states, so the first excitation is that visit and the
    latency is the first divergence minus it (0 for an output fault).
    ``None`` when the test set does not expose the fault; the
    exceptions are the interpreter's.  Invalid faults and unknown
    fault types take the interpreter.
    """
    dense = dense_mealy(spec)
    compiled = _fault_site(dense, fault)
    if compiled is None:
        from ..faults.simulate import detection_latency

        return detection_latency(spec, fault, inputs)
    traj = _trajectory(dense, inputs)
    first = _first_divergence(dense, traj, *compiled)
    if first is None:
        return None
    return first - traj.visits[compiled[0]][0]

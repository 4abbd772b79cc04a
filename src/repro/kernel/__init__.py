"""Compiled simulation kernels.

Tree-walking interpretation pays per-step dispatch on both hot paths
a fault campaign runs: expression evaluation per gate per cycle
(netlists) and dict lookups on tuple keys per step (Mealy replay).
This package compiles each structure once and replays it with
flat-array indexing and machine-word bitwise ops:

* :mod:`.netlist_kernel` -- levelizes a netlist into an exec-generated
  SSA cycle function over bit-slots; one pass simulates the golden
  design plus a configurable number of stuck-at mutants in the lanes
  of ordinary Python ints (word-parallel fault simulation with
  drop-on-detect masking; ``lanes`` defaults to :data:`DEFAULT_LANES`
  = 1024 total lanes).  Each pass runs dense or event-driven, chosen
  from the vectors' input toggle rate and the netlist's register
  blocks; the event-driven pass takes its golden trace block by block
  and skips cycles where every live mutant is quiescent.
* :mod:`.mealy_kernel` -- interns states/inputs to dense indices; a
  fault campaign precomputes one spec trajectory per test set, and
  each single fault's verdict and detection latency come from one
  table walk over it (:func:`detect_faults_compiled`,
  :func:`detection_latency_compiled`).

Both kernels answer only what a campaign asks of them, and each
answer is byte-identical to its interpreter's (same verdicts, same
reports, same exception types and messages); the interpreter stays
available behind ``--kernel interp`` as the one oracle, and
``tests/test_kernel_differential.py`` pins the equivalence with
hypothesis property tests.

Compiled artifacts contain exec-generated functions and are therefore
unpicklable; they are memoized in module-level ``WeakKeyDictionary``
side tables rather than attached to the netlist/machine objects, so
campaign payloads shipped to worker processes still pickle (workers
recompile once per chunk).  A compiled artifact refers to its source
object only weakly, so a memo entry dies with the machine or netlist
it was compiled from.
"""

from .mealy_kernel import (
    DenseMealy,
    dense_mealy,
    detect_faults_compiled,
    detection_latency_compiled,
)
from .netlist_kernel import (
    DEFAULT_LANES,
    CompiledNetlist,
    KernelError,
    compiled_netlist,
    resolve_lanes,
    stuck_at_first_divergences,
)

__all__ = [
    "DEFAULT_LANES",
    "CompiledNetlist",
    "DenseMealy",
    "KernelError",
    "compiled_netlist",
    "dense_mealy",
    "detect_faults_compiled",
    "detection_latency_compiled",
    "resolve_lanes",
    "stuck_at_first_divergences",
]

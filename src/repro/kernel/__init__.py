"""Compiled simulation kernels.

Tree-walking interpretation pays per-step dispatch on every hot path:
expression evaluation per gate per cycle (netlists), dict lookups on
tuple keys per step (Mealy replay), a fresh BFS per state pair
(distinguishability).  This package compiles each structure once and
replays it with flat-array indexing and machine-word bitwise ops:

* :mod:`.netlist_kernel` -- levelizes a netlist into an exec-generated
  SSA cycle function over bit-slots; one pass simulates the golden
  design plus a configurable number of stuck-at mutants in the lanes
  of ordinary Python ints (word-parallel fault simulation with
  drop-on-detect masking; ``lanes`` defaults to :data:`DEFAULT_LANES`
  = 1024 total lanes).  Each pass runs dense or event-driven, chosen
  from the vectors' input toggle rate and the netlist's register
  blocks; the event-driven pass takes its golden trace block by block
  and skips cycles where every live mutant is quiescent.
* :mod:`.mealy_kernel` -- interns states/inputs to dense indices and
  replays tours by array indexing; a fault campaign precomputes one
  spec trajectory per test set, and each single fault's verdict and
  detection latency come from one table walk over it
  (:func:`detect_faults_compiled`, :func:`detection_latency_compiled`).
* :mod:`.pairs_kernel` -- layered fixpoints over the triangular pair
  space shared by ``distinguishability_matrix`` and
  ``analyze_forall_k``.

Every kernel is a byte-identical twin of its interpreter (same
verdicts, same reports, same exception types and messages); the
interpreter stays available behind ``--kernel interp`` as the
differential oracle, and ``tests/test_kernel_differential.py`` pins
the equivalence with hypothesis property tests.

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
    detect_fault_compiled,
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
from .pairs_kernel import (
    analyze_forall_k_kernel,
    distinguishability_matrix_kernel,
)

__all__ = [
    "DEFAULT_LANES",
    "CompiledNetlist",
    "DenseMealy",
    "KernelError",
    "analyze_forall_k_kernel",
    "compiled_netlist",
    "dense_mealy",
    "detect_fault_compiled",
    "detect_faults_compiled",
    "detection_latency_compiled",
    "distinguishability_matrix_kernel",
    "resolve_lanes",
    "stuck_at_first_divergences",
]

"""Campaign-service protocol: specs, resolution, shards.

The coordinator and its shard workers live in different processes on
(potentially) different machines, so nothing big ever crosses the
wire.  A campaign travels as a small JSON **spec** naming a canonical
target and its settings; both sides independently resolve the spec to
the identical fault-domain kind (:class:`~repro.faults.campaign.
FsmKind` or :class:`~repro.validation.harness.DlxKind`) -- every
resolution step (model construction, tour generation, suite
generation, fault enumeration) is deterministic -- and the run's
**identity** (the run-directory manifest identity: model/test
fingerprints, fault digest, kernel, timeout) doubles as the content
address of its result.

Shards are index ranges ``[lo, hi)`` over the resolved population.  A
worker's shard result is the list of the kind's journal records -- the
same records a local ``--run-dir`` run journals -- so verdicts
absorbed from workers, replayed from a crashed coordinator's spool
journal, and produced locally are all the same bytes.  The
coordinator absorbs them into the slots of a
:class:`~repro.campaign.Campaign` core, which fills each fault index
at most once and drops malformed records: that is what makes
at-least-once shard delivery (lease expiry + reassignment + zombie
late reports) safe, and what assembles the report, metrics and event
stream exactly as a local run does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..campaign import KERNELS
from ..faults.campaign import FsmKind
from ..runtime.runner import dlx_campaign_identity, fsm_campaign_identity
from ..validation.harness import DIRECTED_TEST_NAME, DlxKind, directed_battery

_SUITES = ("tour", "w", "wp", "hsi")
_METHODS = ("cpp", "greedy")

_SPEC_KEYS = (
    "target", "method", "suite", "extra_states", "kernel", "timeout",
)


class SpecError(ValueError):
    """A campaign spec the service cannot (or refuses to) resolve."""


def normalize_spec(spec: Any) -> Dict[str, Any]:
    """Validate a submitted spec and fill defaults; canonical form.

    Normalization is idempotent and total-ordering-free: the same
    logical submission always normalizes to the same dict, which is
    what makes submissions content-addressable.
    """
    if not isinstance(spec, dict):
        raise SpecError(
            f"campaign spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    unknown = sorted(set(spec) - set(_SPEC_KEYS))
    if unknown:
        raise SpecError(
            f"unknown spec field(s) {unknown}; expected a subset of "
            f"{list(_SPEC_KEYS)}"
        )
    target = spec.get("target")
    if not isinstance(target, str) or not target:
        raise SpecError("spec needs a non-empty string 'target'")
    method = spec.get("method", "cpp")
    if method not in _METHODS:
        raise SpecError(f"method must be one of {_METHODS}: {method!r}")
    suite = spec.get("suite", "tour")
    if suite not in _SUITES:
        raise SpecError(f"suite must be one of {_SUITES}: {suite!r}")
    kernel = spec.get("kernel", "compiled")
    if kernel not in KERNELS:
        raise SpecError(f"kernel must be one of {KERNELS}: {kernel!r}")
    try:
        extra_states = int(spec.get("extra_states") or 0)
    except (TypeError, ValueError):
        raise SpecError(
            f"extra_states must be an integer: "
            f"{spec.get('extra_states')!r}"
        ) from None
    if extra_states < 0:
        raise SpecError(f"extra_states must be >= 0: {extra_states}")
    timeout = spec.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise SpecError(
                f"timeout must be a number: {timeout!r}"
            ) from None
        if timeout <= 0:
            raise SpecError(f"timeout must be > 0: {timeout}")
    if target == "dlx" and suite != "tour":
        raise SpecError(
            "the dlx target replays directed programs; only "
            "suite='tour' applies"
        )
    return {
        "target": target,
        "method": method,
        "suite": suite,
        "extra_states": extra_states,
        "kernel": kernel,
        "timeout": timeout,
    }


@dataclass
class ResolvedCampaign:
    """A spec resolved to concrete work, identically on every host.

    ``kind`` is the campaign's fault domain (an ``FsmKind`` or a
    ``DlxKind``; ``kind.name`` says which) and ``identity`` the
    manifest identity whose digest is the campaign's content address.
    """

    spec: Dict[str, Any]
    identity: Dict[str, Any]
    kind: Any

    @property
    def total(self) -> int:
        return self.kind.total


def resolve_campaign(spec: Any) -> ResolvedCampaign:
    """Resolve a spec to its fault-domain kind and identity.

    Deterministic by construction; raises :class:`SpecError` for
    anything that cannot be resolved (unknown target, ungenerable
    suite), never half-resolves.
    """
    spec = normalize_spec(spec)
    kernel, timeout = spec["kernel"], spec["timeout"]
    if spec["target"] == "dlx":
        from ..dlx.buggy import BUG_CATALOG

        tests = directed_battery()
        catalog = tuple(BUG_CATALOG)
        return ResolvedCampaign(
            spec=spec,
            identity=dlx_campaign_identity(
                tests, catalog, DIRECTED_TEST_NAME, kernel, timeout
            ),
            kind=DlxKind(tests, catalog, DIRECTED_TEST_NAME),
        )
    from ..corpus.suite import build_test
    from ..models import build_model
    from ..tour import SuiteError

    try:
        machine = build_model(spec["target"])
    except KeyError as exc:
        raise SpecError(str(exc.args[0])) from None
    try:
        machine, inputs, faults = build_test(
            machine, spec["suite"], spec["method"], spec["extra_states"]
        )
    except SuiteError as exc:
        raise SpecError(
            f"cannot generate {spec['suite']} suite for "
            f"{spec['target']}: {exc}"
        ) from None
    return ResolvedCampaign(
        spec=spec,
        identity=fsm_campaign_identity(
            machine, inputs, faults, kernel, timeout
        ),
        kind=FsmKind(machine, inputs, faults),
    )


# --------------------------------------------------------------------
# Shard simulation (worker side)
# --------------------------------------------------------------------


def simulate_shard(
    resolved: ResolvedCampaign,
    lo: int,
    hi: int,
    *,
    kernel: Optional[str] = None,
    mark_degraded: bool = False,
) -> List[Dict[str, Any]]:
    """Simulate faults ``[lo, hi)`` and return their journal records.

    ``kernel`` overrides the spec's kernel (the coordinator forces
    ``"interp"`` for quarantined singleton shards); ``mark_degraded``
    stamps every record as degraded, propagating the exit-code-3
    "survived, not clean" semantics through the service.  Verdicts are
    byte-identical either way -- the oracle defines correctness.
    """
    spec = resolved.spec
    if not 0 <= lo <= hi <= resolved.total:
        raise ValueError(
            f"shard [{lo}, {hi}) outside population of {resolved.total}"
        )
    indices = list(range(lo, hi))
    verdicts = resolved.kind.sweep(
        indices, jobs=1, timeout=spec["timeout"],
        kernel=kernel or spec["kernel"],
    )
    records = []
    for index, verdict in zip(indices, verdicts):
        record = resolved.kind.record(index, verdict)
        record["degraded"] = verdict.degraded or mark_degraded
        records.append(record)
    return records

"""Command-line interface: the library's main flows as subcommands.

::

    python -m repro fig3b                 # abstraction sequence table
    python -m repro stats [--small]       # Section 7.2 statistics
    python -m repro tour MODEL [...]      # tour a canonical model
    python -m repro validate ASM_FILE     # co-simulate a DLX program
    python -m repro catalog               # the design-error catalog
    python -m repro campaign TARGET       # parallel fault campaign
    python -m repro report METRICS.json   # render a saved metrics file
    python -m repro watch RUN_DIR         # follow a journaled run
    python -m repro bench-report [DIR]    # bench trajectory + gate
    python -m repro bench-suite DIR       # corpus-wide campaign sweep

Each subcommand prints a self-contained report; exit status is
non-zero when a validation fails or a campaign leaves coverage
incomplete.  A campaign that reaches full coverage but only completed
through graceful degradation (quarantined tasks re-run on the
interpreter oracle after worker failures) exits with the distinct
status 3, so CI can tell "clean pass" from "survived pass".

``campaign --run-dir DIR`` journals every verdict to a checksummed
write-ahead log under ``DIR`` (with ``manifest.json``,
``report.json`` and ``metrics.json``); after a crash or kill,
``campaign ... --run-dir DIR --resume`` replays the journal and
re-simulates only the missing entries, producing byte-identical
reports.

The ``tour``, ``validate`` and ``campaign`` subcommands accept
``--trace FILE`` (the event stream rendered as a span trace;
``.jsonl`` for raw records, anything else for Chrome ``trace_event``
JSON loadable in ``chrome://tracing`` / Perfetto) and ``--metrics
FILE`` (the metrics-registry dump that ``repro report`` renders),
plus the live observatory flags: ``--events FILE`` streams the typed
event bus as JSONL, ``--progress {auto,always,never}`` controls the
one-line stderr progress view (``auto`` = only on a TTY), and
``--status-port N`` serves ``/status``, ``/metrics`` (Prometheus
text) and ``/events?since=N`` on ``127.0.0.1:N`` for the duration of
the command (``0`` picks an ephemeral port, announced on stderr; a
port that cannot be bound exits 2).  With none of these flags the
observability layer stays a no-op.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, List, Optional

from . import models as model_zoo
from .campaign import KERNELS
from .tour.methods import SUITE_METHODS

# The shared registry object (not a copy): tests and plugins that add
# a model here are visible to the campaign service's target resolution
# too, and vice versa.
CANONICAL_MODELS = model_zoo.CANONICAL_MODELS

#: Exit status for a campaign that reached full coverage but only by
#: degrading (quarantined tasks re-run on the interpreter oracle).
EXIT_DEGRADED = 3


def _campaign_exit(complete: bool, degraded: bool) -> int:
    """Campaign exit status: coverage gaps dominate degradation."""
    if not complete:
        return 1
    if degraded:
        return EXIT_DEGRADED
    return 0


class _CannotServe(Exception):
    """A server could not bind its port; :func:`main` reports it."""


def _serve(stack: contextlib.ExitStack, start, host: str, port: int):
    """``start()`` a server and stop it when ``stack`` unwinds; a
    failed bind raises :class:`_CannotServe`, unwinding the stack."""
    try:
        server = start()
    except OSError as exc:
        raise _CannotServe(f"cannot serve on {host}:{port}: {exc}") from None
    stack.callback(server.stop)
    return server


def _write_metrics(registry, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(registry.dump(), handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextlib.contextmanager
def _observability(args: argparse.Namespace) -> Iterator[None]:
    """Install the observability layer the flags ask for.

    ``--metrics`` installs a live registry whose dump is written after
    the command body finishes (even on error, so a failing campaign
    still leaves its telemetry behind).  ``--trace``/``--events``/
    ``--progress``/``--status-port`` install a live event bus with the
    matching sinks: the span trace, a JSONL file, the stderr progress
    renderer, and the ring buffer + progress model behind the HTTP
    status server.  Everything is entered on one exit stack, so a
    failed setup (a busy ``--status-port``) unwinds what came before
    it.  With none of the flags set this is a pure pass-through: the
    global no-op registry/bus stay installed and instrumented hot
    paths pay nothing.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    events_path = getattr(args, "events", None)
    progress_mode = getattr(args, "progress", "auto") or "auto"
    status_port = getattr(args, "status_port", None)
    from .obs import (
        JsonlSink,
        ProgressModel,
        ProgressRenderer,
        RingBufferSink,
        TraceSink,
        progress_enabled,
        scoped_bus,
        scoped_registry,
        serve_campaign,
    )

    want_progress = progress_enabled(progress_mode)
    serving = status_port is not None
    with contextlib.ExitStack() as stack:
        # The status server's /metrics endpoint reads the *installed*
        # registry, so --status-port implies a live one even without
        # --metrics (the dump is simply not written anywhere).
        if metrics_path or serving:
            registry = stack.enter_context(scoped_registry())
            if metrics_path:
                stack.callback(_write_metrics, registry, metrics_path)
        if trace_path or events_path or want_progress or serving:
            bus = stack.enter_context(scoped_bus())
            if trace_path:
                stack.callback(bus.add_sink(TraceSink(trace_path)).close)
            if events_path:
                stack.callback(bus.add_sink(JsonlSink(events_path)).close)
            renderer = None
            if want_progress:
                renderer = bus.add_sink(ProgressRenderer())
                stack.callback(renderer.close)
            if serving:
                ring = bus.add_sink(RingBufferSink())
                # Reuse the renderer's model when both views are up,
                # so /status and the progress line never disagree.
                model = (
                    renderer.model if renderer
                    else bus.add_sink(ProgressModel())
                )
                server = _serve(
                    stack,
                    lambda: serve_campaign(model, ring, port=status_port),
                    "127.0.0.1", status_port,
                )
                print(
                    f"status server listening on {server.url} "
                    f"(/status /metrics /events)",
                    file=sys.stderr,
                )
        yield


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a span trace (.jsonl for raw records, otherwise "
        "Chrome trace_event JSON for chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics-registry dump as JSON "
        "(render with `repro report FILE`)",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="stream the typed event bus (campaign lifecycle, fault "
        "verdicts, coverage snapshots, scheduling) to FILE as JSONL",
    )
    parser.add_argument(
        "--progress",
        choices=("auto", "always", "never"),
        default="auto",
        help="one-line live progress view on stderr "
        "(auto: only when stderr is a TTY)",
    )
    parser.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="N",
        help="serve /status (JSON), /metrics (Prometheus text) and "
        "/events?since=N on 127.0.0.1:N while the command runs "
        "(0 picks an ephemeral port, announced on stderr)",
    )


def cmd_fig3b(_args: argparse.Namespace) -> int:
    from .dlx.testmodel import derive_test_model

    trail = derive_test_model()
    print(f"{'latches':>8} {'PIs':>5} {'POs':>5}   step")
    for label, net in trail:
        print(
            f"{net.latch_count():>8} {net.input_count():>5} "
            f"{net.output_count():>5}   {label}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .bdd import from_netlist, reachable_states
    from .dlx.testmodel import (
        final_test_model,
        tour_input_constraint,
        tour_netlist,
        valid_input_constraint,
    )

    if args.small:
        net = tour_netlist()
        constraint = tour_input_constraint(net)
    else:
        net = final_test_model()
        constraint = valid_input_constraint(net)
    fsm = from_netlist(net, valid=constraint, partitioned=True)
    result = reachable_states(fsm)
    print(f"model: {net.name} ({net.latch_count()} latches, "
          f"{net.input_count()} inputs)")
    print(f"valid inputs: {fsm.count_valid_inputs():,} of "
          f"{1 << len(fsm.input_bits):,}")
    print(str(result))
    print(f"transitions: {fsm.count_transitions(result.reachable):,}")
    return 0


def cmd_tour(args: argparse.Namespace) -> int:
    from .faults import run_campaign
    from .tour import transition_tour

    builder = CANONICAL_MODELS.get(args.model)
    if builder is None:
        print(
            f"unknown model {args.model!r}; choose from "
            f"{', '.join(sorted(CANONICAL_MODELS))}",
            file=sys.stderr,
        )
        return 2
    with _observability(args):
        machine = builder()
        tour = transition_tour(machine, method=args.method)
        from .obs import get_registry, replay_with_telemetry

        if get_registry().enabled and not args.campaign:
            # The campaign path replays the tour itself; otherwise
            # stream visit counts / first-visit steps here.
            replay_with_telemetry(
                machine,
                tour.inputs,
                snapshot_every=max(1, len(tour) // 10),
            )
        print(f"model: {machine}")
        print(f"{args.method} tour: {len(tour)} inputs")
        if args.show:
            print(" ".join(map(str, tour.inputs)))
        if args.campaign:
            print(run_campaign(machine, tour.inputs, kernel=args.kernel))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .dlx.assembler import assemble
    from .dlx.pipeline import PipelineBugs
    from .validation import validate

    with open(args.program) as handle:
        program = assemble(handle.read())
    bugs = None
    if args.bug:
        from .dlx.buggy import catalog_by_name

        entry = catalog_by_name().get(args.bug)
        if entry is None:
            print(f"unknown bug {args.bug!r}", file=sys.stderr)
            return 2
        bugs = entry.bugs
    with _observability(args):
        result = validate(program, bugs=bugs)
        print(result)
    return 0 if result.passed else 1


def _campaign_result(args: argparse.Namespace, run, run_resumable,
                     *params, **kwargs):
    """Run one campaign the way the flags ask: ``run`` in memory, or
    ``run_resumable`` journaled under ``--run-dir`` (continued with
    ``--resume``; the run-dir accounting goes to stderr, stdout keeps
    the report only).  Returns the campaign result, or None after
    reporting an unusable run directory."""
    options = dict(
        jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        kernel=args.kernel, **kwargs,
    )
    if not args.run_dir:
        return run(*params, **options)
    from .runtime import RunDirError

    try:
        journaled = run_resumable(
            *params, run_dir=args.run_dir, resume=args.resume,
            slice_size=args.journal_slice, **options,
        )
    except RunDirError as exc:
        print(exc, file=sys.stderr)
        return None
    stats = journaled.stats
    print(
        f"run dir {journaled.paths.run_dir}: replayed {stats.replayed} "
        f"journaled verdicts ({stats.provisional} provisional, "
        f"{stats.dropped} corrupt lines dropped), simulated "
        f"{stats.executed}",
        file=sys.stderr,
    )
    return journaled.result


def _suite_campaign(args: argparse.Namespace, machine):
    """A W/Wp/HSI suite campaign for ``repro campaign --suite ...``.

    The suite is lowered to one flat reset-separated input sequence
    over the reset harness, so it rides the exact same executor paths
    (jobs, kernel, run-dir journaling) as a transition tour.
    """
    from .core import suite_completeness_report
    from .faults import run_campaign
    from .runtime import run_campaign_resumable
    from .tour import FaultDomain, SuiteError, generate_suite

    try:
        suite = generate_suite(
            machine, args.suite,
            FaultDomain(extra_states=args.extra_states),
        )
        ex = suite.executable(machine)
    except SuiteError as exc:
        print(f"cannot generate {args.suite} suite: {exc}", file=sys.stderr)
        return None, (), {}
    report = suite_completeness_report(machine, args.suite, suite.m)
    result = _campaign_result(
        args, run_campaign, run_campaign_resumable,
        ex.machine, ex.inputs, faults=list(ex.faults),
    )
    header = (
        f"model: {machine}",
        f"{args.suite} suite (m={suite.m}): {suite.num_sequences} "
        f"sequences, {suite.total_steps} steps, jobs={args.jobs}",
        report.explain(),
    )
    extra = {
        "suite": suite.to_json_dict(),
        "completeness": report.to_json_dict(),
    }
    return result, header, extra


def _chaos_arg(args: argparse.Namespace, parse) -> bool:
    """Replace ``args.chaos`` by its plan, ``parse(spec)`` (None when
    absent); False, after a usage message on stderr, for a bad spec.
    Each command brings its own grammar: executor tasks or shards."""
    try:
        args.chaos = parse(args.chaos) if args.chaos else None
    except ValueError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return False
    return True


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.run_dir:
        print("--resume requires --run-dir", file=sys.stderr)
        return 2
    from .runtime import chaos_scope, parse_plan

    if not _chaos_arg(args, parse_plan):
        return 2
    if args.target == "dlx" and args.suite != "tour":
        print(
            "--suite w/wp/hsi needs an explicit Mealy specification; "
            "the dlx target replays directed programs, so only "
            "--suite tour applies",
            file=sys.stderr,
        )
        return 2
    if args.target != "dlx" and args.target not in CANONICAL_MODELS:
        print(
            f"unknown campaign target {args.target!r}; choose 'dlx' or one "
            f"of {', '.join(sorted(CANONICAL_MODELS))}",
            file=sys.stderr,
        )
        return 2
    # Each campaign flavour returns (result, text header lines, extra
    # JSON keys); a None result means a usage error was reported.
    with _observability(args), chaos_scope(args.chaos):
        if args.target == "dlx":
            result, header, extra = _dlx_campaign(args)
        elif args.suite != "tour":
            machine = CANONICAL_MODELS[args.target]()
            result, header, extra = _suite_campaign(args, machine)
        else:
            machine = CANONICAL_MODELS[args.target]()
            result, header, extra = _tour_campaign(args, machine)
        if result is None:
            return 2
        if args.json:
            payload = result.to_json_dict()
            payload.update(extra)
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in header + (str(result),):
                print(line)
    # Incomplete error coverage is a validation gap, and the exit
    # status says so; a degraded-but-complete run gets its own status
    # so CI can tell the difference.
    return _campaign_exit(result.coverage == 1.0, result.degraded)


def _dlx_campaign(args: argparse.Namespace):
    """The DLX bug-catalog campaign over the directed programs."""
    from .runtime import run_bug_campaign_resumable
    from .validation import (
        DIRECTED_TEST_NAME,
        directed_battery,
        run_bug_campaign,
    )

    tests = directed_battery()
    result = _campaign_result(
        args, run_bug_campaign, run_bug_campaign_resumable,
        tests, test_name=DIRECTED_TEST_NAME,
    )
    header = (f"{len(tests)} directed programs, jobs={args.jobs}",)
    return result, header, {}


def _tour_campaign(args: argparse.Namespace, machine):
    """A transition-tour campaign over every single fault."""
    from .faults import run_campaign
    from .runtime import run_campaign_resumable
    from .tour import transition_tour

    tour = transition_tour(machine, method=args.method)
    result = _campaign_result(
        args, run_campaign, run_campaign_resumable, machine, tour.inputs,
    )
    header = (
        f"model: {machine}",
        f"{args.method} tour: {len(tour)} inputs, jobs={args.jobs}",
    )
    return result, header, {}


def cmd_bench_suite(args: argparse.Namespace) -> int:
    """Sweep a whole benchmark corpus through the campaign engine.

    The stdout table is deterministic -- byte-identical at any
    ``--jobs``/``--kernel`` and whether or not ``--store``
    answered from cache; wall-clock and store facts go to stderr, the
    JSON ``timing`` section, and the bench history file.
    """
    if args.resume and not args.run_root:
        print("--resume requires --run-root", file=sys.stderr)
        return 2
    from .corpus import CorpusError, load_corpus
    from .corpus.suite import run_bench_suite
    from .runtime import RunDirError

    store = None
    if args.store:
        from .service.store import ResultStore

        store = ResultStore(args.store)
    with _observability(args):
        try:
            entries = load_corpus(args.corpus, max_states=args.max_states)
        except CorpusError as exc:
            print(exc, file=sys.stderr)
            return 2
        try:
            report = run_bench_suite(
                entries,
                corpus=os.path.basename(os.path.normpath(args.corpus)),
                suite=args.suite,
                method=args.method,
                extra_states=args.extra_states,
                jobs=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                kernel=args.kernel,
                store=store,
                run_root=args.run_root,
                resume=args.resume,
            )
        except RunDirError as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2,
                             sort_keys=True))
        else:
            print(report.render_table(), end="")
        print(
            f"bench-suite: {report.executed} simulations executed, "
            f"{report.cached_circuits}/{len(report.rows)} circuits "
            f"answered by the store, {report.seconds:.2f}s",
            file=sys.stderr,
        )
    if not args.no_bench:
        from .obs.bench import record_bench

        agg = report.aggregate()
        record_bench(
            "bench_suite",
            f"BENCH-SUITE: {report.corpus} ({report.suite})",
            data={
                "total_seconds": round(report.seconds, 6),
                "circuits": agg["circuits"],
                "faults": agg["faults"],
                "detected": agg["detected"],
                "coverage": agg["coverage"],
                "executed": report.executed,
            },
            meta={
                "corpus": report.corpus,
                "suite": report.suite,
                "jobs": args.jobs,
                "kernel": args.kernel,
                "cached_circuits": report.cached_circuits,
            },
        )
    if report.errors:
        return 1
    # A tour sweep is a survey: escapes are the data (Figure 2's
    # point), not a failure.  W/Wp/HSI promise completeness, so any
    # gap there is a real defect in suite or engine.
    complete = args.suite == "tour" or report.coverage == 1.0
    return _campaign_exit(complete, report.degraded)


def cmd_report(args: argparse.Namespace) -> int:
    from .obs import render_metrics_file

    try:
        print(render_metrics_file(args.metrics_file), end="")
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot render {args.metrics_file!r}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def _watch_line(snapshot: dict) -> str:
    """One status line for a run-directory snapshot."""
    from .obs.progress import format_eta

    identity = snapshot.get("identity") or {}
    label = (
        identity.get("machine")
        or identity.get("test_name")
        or snapshot.get("run_dir", "run")
    )
    total = snapshot.get("total")
    done = snapshot.get("journaled", 0)
    parts = [f"{snapshot.get('phase', '?'):<8} {label}"]
    if isinstance(total, int) and total:
        parts.append(f"{done}/{total} {done / total:6.1%}")
    else:
        parts.append(f"{done} journaled")
    parts.append(
        f"det {snapshot.get('detected', 0)} "
        f"esc {snapshot.get('escaped', 0)}"
    )
    if snapshot.get("timed_out"):
        parts.append(f"t/o {snapshot['timed_out']}")
    if snapshot.get("degraded"):
        parts.append(f"degr {snapshot['degraded']}")
    if snapshot.get("dropped"):
        parts.append(f"dropped {snapshot['dropped']}")
    coverage = snapshot.get("coverage")
    if coverage is not None:
        parts.append(f"cov {coverage:.1%}")
    return "  ".join(parts)


def cmd_watch(args: argparse.Namespace) -> int:
    """Follow a journaled run directory until its report lands."""
    import time

    from .runtime import RunDirError, watch_snapshot

    def take() -> Optional[dict]:
        try:
            return watch_snapshot(args.run_dir)
        except (RunDirError, OSError, ValueError) as exc:
            print(f"cannot watch {args.run_dir!r}: {exc}",
                  file=sys.stderr)
            return None

    snapshot = take()
    if snapshot is None:
        return 2
    with contextlib.ExitStack() as stack:
        if args.status_port is not None:
            from .obs import StatusServer

            def metrics_provider() -> dict:
                from .runtime import run_paths

                try:
                    with open(run_paths(args.run_dir).metrics) as handle:
                        loaded = json.load(handle)
                    return loaded if isinstance(loaded, dict) else {}
                except (OSError, ValueError):
                    return {}

            server = _serve(
                stack,
                lambda: StatusServer(
                    status_provider=lambda: watch_snapshot(args.run_dir),
                    metrics_provider=metrics_provider,
                    port=args.status_port,
                ).start(),
                "127.0.0.1", args.status_port,
            )
            print(
                f"status server listening on {server.url} "
                f"(/status /metrics)",
                file=sys.stderr,
            )
        try:
            while True:
                if args.json:
                    print(json.dumps(snapshot, sort_keys=True))
                else:
                    print(_watch_line(snapshot))
                if args.once or snapshot.get("phase") == "done":
                    return 0
                time.sleep(max(0.05, args.interval))
                snapshot = take()
                if snapshot is None:
                    return 2
        except KeyboardInterrupt:
            return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Render the bench trajectory and run the regression gate."""
    from .obs.bench import (
        default_bench_dir,
        find_regressions,
        load_bench_dir,
        render_trajectory,
    )

    directory = args.dir or default_bench_dir()
    histories = load_bench_dir(directory)
    if not histories:
        print(f"no BENCH_*.json files under {directory!r}",
              file=sys.stderr)
        return 2
    print(render_trajectory(histories), end="")
    regressions = [
        regression
        for name in sorted(histories)
        for regression in find_regressions(
            histories[name], threshold=args.threshold
        )
    ]
    if regressions:
        print()
        print(
            f"{len(regressions)} timing regression(s) beyond "
            f"{args.threshold:.0%} (latest entry vs previous):"
        )
        for regression in regressions:
            print(f"  {regression}")
        if args.check:
            return 1
    else:
        print()
        print(f"no timing regressions beyond {args.threshold:.0%}")
    return 0


def cmd_catalog(_args: argparse.Namespace) -> int:
    from .dlx.buggy import BUG_CATALOG

    for entry in BUG_CATALOG:
        print(f"{entry.name}  [{entry.mechanism}]")
        print(f"    {entry.description}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the fault-tolerant campaign service until interrupted."""
    import time

    from .obs import JsonlSink, scoped_bus, scoped_registry
    from .service import Coordinator, ServiceServer

    try:
        coordinator = Coordinator(
            args.root,
            shard_size=args.shard_size,
            lease_seconds=args.lease_seconds,
            queue_limit=args.queue_limit,
            quarantine_after=args.quarantine_after,
            max_attempts=args.max_attempts,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        # A live registry so /metrics reports real counters; an
        # optional live bus so --events captures the service.*
        # lifecycle stream.
        stack.enter_context(scoped_registry())
        if args.events:
            bus = stack.enter_context(scoped_bus())
            stack.callback(bus.add_sink(JsonlSink(args.events)).close)
        server = _serve(
            stack,
            lambda: ServiceServer(
                coordinator, host=args.host, port=args.port
            ).start(),
            args.host, args.port,
        )
        # The URL on stdout (scripts read it); the prose on stderr.
        print(server.url, flush=True)
        print(
            f"campaign service listening on {server.url} "
            f"(state under {args.root}; POST /api/campaigns to submit)",
            file=sys.stderr,
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            return 0


def cmd_shard_worker(args: argparse.Namespace) -> int:
    """Run one shard-worker loop against a campaign service."""
    from .runtime import parse_shard_plan
    from .service import ShardWorker

    if not _chaos_arg(args, parse_shard_plan):
        return 2
    worker = ShardWorker(
        args.url,
        worker_id=args.worker_id,
        poll=args.poll,
        max_shards=args.max_shards,
        max_idle_seconds=args.max_idle,
        chaos=args.chaos,
    )
    try:
        return worker.run()
    except KeyboardInterrupt:
        return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign to a service; exit like `repro campaign`."""
    from .service import (
        ServiceError,
        submit_campaign,
        wait_for_campaign,
    )

    spec = {
        "target": args.target,
        "method": args.method,
        "suite": args.suite,
        "extra_states": args.extra_states,
        "kernel": args.kernel,
        "timeout": args.timeout,
    }
    try:
        view = submit_campaign(args.url, spec)
        if not args.no_wait and view.get("state") == "running":
            view = wait_for_campaign(
                args.url,
                view["campaign"],
                poll=args.poll,
                timeout=args.wait_timeout,
            )
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
    state = view.get("state")
    if state == "running":
        if not args.json:
            print(
                f"campaign {view['campaign']} running "
                f"({view.get('filled', 0)}/{view.get('total', '?')})"
            )
        return 0
    if state != "done":
        print(
            f"campaign {view.get('campaign')} {state}: "
            f"{view.get('error')}",
            file=sys.stderr,
        )
        return 1
    coverage = float(view.get("coverage") or 0.0)
    if not args.json:
        line = (
            f"campaign {view['campaign'][:12]} done: coverage "
            f"{coverage:.1%} ({view.get('filled')}/{view.get('total')})"
        )
        if view.get("cached"):
            line += " [answered from result store, zero simulations]"
        if view.get("degraded"):
            line += " [degraded]"
        print(line)
    return _campaign_exit(
        coverage == 1.0, bool(view.get("degraded"))
    )


def _add_campaign_flags(
    parser: argparse.ArgumentParser, executor: bool = True
) -> None:
    """The campaign flags ``campaign``, ``bench-suite`` and ``submit``
    share; ``executor`` adds the local-executor ones (``--jobs``,
    ``--retries``)."""
    parser.add_argument(
        "--method", choices=("cpp", "greedy"), default="cpp",
        help="tour construction for --suite tour",
    )
    parser.add_argument(
        "--suite",
        choices=("tour",) + SUITE_METHODS,
        default="tour",
        help="test-set construction: 'tour' replays a transition tour "
        "(catches all output errors, Theorem 1), 'w'/'wp'/'hsi' "
        "generate complete suites that also catch transfer errors for "
        "any implementation in the m-state fault domain; suites run "
        "through a reset harness on the same executor",
    )
    parser.add_argument(
        "--extra-states",
        type=int,
        default=0,
        metavar="K",
        help="widen the fault domain to m = n + K implementation "
        "states for --suite w/wp/hsi (suite length grows with K)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-fault wall-clock timeout in seconds; a timed-out "
        "mutant is recorded as detected-by-crash",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default="compiled",
        help="simulation kernel: 'compiled' replays fault batches "
        "against dense-table compilations and, for the DLX catalog, "
        "gives every bug whose flag a test never sensitizes that "
        "test's golden-run verdict unsimulated; 'interp' simulates "
        "every fault in full (the differential oracle); verdicts are "
        "byte-identical, and the kernel is part of a campaign's "
        "identity",
    )
    if not executor:
        return
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical at any count)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-runs of a failed task (a batch of faults, under either "
        "kernel) before its faults are quarantined and re-run on the "
        "interpreter oracle",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Coverage-driven validation via transition tours "
            "(DAC 1997 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "fig3b", help="print the Figure 3(b) abstraction sequence"
    ).set_defaults(func=cmd_fig3b)

    stats = sub.add_parser(
        "stats", help="Section 7.2 traversal statistics"
    )
    stats.add_argument(
        "--small",
        action="store_true",
        help="use the reduced tour netlist (seconds instead of minutes)",
    )
    stats.set_defaults(func=cmd_stats)

    tour = sub.add_parser("tour", help="tour a canonical model")
    tour.add_argument("model", help=", ".join(sorted(CANONICAL_MODELS)))
    tour.add_argument(
        "--method", choices=("cpp", "greedy"), default="cpp"
    )
    tour.add_argument(
        "--show", action="store_true", help="print the input sequence"
    )
    tour.add_argument(
        "--campaign",
        action="store_true",
        help="measure error coverage over all single faults",
    )
    tour.add_argument(
        "--kernel",
        choices=KERNELS,
        default="compiled",
        help="simulation kernel for --campaign (verdicts are "
        "identical; 'interp' is the differential oracle)",
    )
    _add_obs_flags(tour)
    tour.set_defaults(func=cmd_tour)

    val = sub.add_parser(
        "validate", help="co-simulate a DLX assembly program"
    )
    val.add_argument("program", help="assembly file")
    val.add_argument(
        "--bug", help="inject a catalog bug (see `repro catalog`)"
    )
    _add_obs_flags(val)
    val.set_defaults(func=cmd_validate)

    camp = sub.add_parser(
        "campaign",
        help="parallel fault campaign on a canonical model or the DLX "
        "bug catalog",
    )
    camp.add_argument(
        "target",
        help="'dlx' for the pipeline bug-catalog sweep, or one of "
        + ", ".join(sorted(CANONICAL_MODELS)),
    )
    _add_campaign_flags(camp)
    camp.add_argument(
        "--json",
        action="store_true",
        help="print the campaign result as one JSON object "
        "(coverage, per-class breakdown, undetected fault names)",
    )
    camp.add_argument(
        "--run-dir",
        metavar="DIR",
        help="journal every verdict to a checksummed write-ahead log "
        "under DIR (creates manifest.json/journal.jsonl and writes "
        "report.json/metrics.json atomically at the end)",
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted --run-dir campaign: replay the "
        "journal, verify the manifest, re-simulate only missing or "
        "provisional entries (the final report is byte-identical to "
        "an uninterrupted run)",
    )
    camp.add_argument(
        "--journal-slice",
        type=int,
        default=64,
        metavar="N",
        help="verdicts per journal slice (one fsync per slice)",
    )
    camp.add_argument(
        "--chaos",
        metavar="SPEC",
        help="deterministic failure injection for robustness testing, "
        "e.g. 'seed=7,crash=0.1,hang=0.05,error=0.1,corrupt=0.05"
        ",hang_seconds=2' (rates per worker task; the parent process "
        "is never harmed)",
    )
    _add_obs_flags(camp)
    camp.set_defaults(func=cmd_campaign)

    suite = sub.add_parser(
        "bench-suite",
        help="run tour or W/Wp/HSI campaigns across a whole BLIF/KISS "
        "benchmark corpus (per-circuit + aggregate coverage table)",
    )
    suite.add_argument(
        "corpus",
        help="corpus directory (scanned for *.kiss/*.kiss2/*.blif, "
        "honouring a manifest.json when present) or the path of a "
        "manifest file",
    )
    _add_campaign_flags(suite)
    suite.add_argument(
        "--max-states",
        type=int,
        default=4096,
        metavar="N",
        help="reachable-state budget when extracting FSMs from BLIF "
        "netlists; a circuit past the budget becomes an error row",
    )
    suite.add_argument(
        "--store",
        metavar="DIR",
        help="content-addressed result store: campaigns already "
        "answered for an identical (machine, test, population, "
        "kernel, timeout) identity are served from DIR with zero "
        "simulations, fresh results are published into it",
    )
    suite.add_argument(
        "--run-root",
        metavar="DIR",
        help="give every circuit its own journaled run directory "
        "DIR/<circuit> (resumable with --resume)",
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted --run-root sweep: finished "
        "circuits replay from their journals, only missing verdicts "
        "are re-simulated",
    )
    suite.add_argument(
        "--json",
        action="store_true",
        help="print the whole report as one JSON object (rows + "
        "aggregate are deterministic; timing is segregated)",
    )
    suite.add_argument(
        "--no-bench",
        action="store_true",
        help="skip appending this run to BENCH_bench_suite.json",
    )
    _add_obs_flags(suite)
    suite.set_defaults(func=cmd_bench_suite)

    sub.add_parser(
        "catalog", help="list the design-error catalog"
    ).set_defaults(func=cmd_catalog)

    report = sub.add_parser(
        "report",
        help="render a --metrics FILE dump as a summary table",
    )
    report.add_argument("metrics_file", help="JSON file from --metrics")
    report.set_defaults(func=cmd_report)

    watch = sub.add_parser(
        "watch",
        help="follow a journaled --run-dir campaign (journal tail, "
        "progress, final coverage)",
    )
    watch.add_argument("run_dir", help="run directory to watch")
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default 2)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print snapshots as JSON objects, one per poll",
    )
    watch.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="N",
        help="also serve the snapshot as /status (+ saved /metrics) "
        "on 127.0.0.1:N while watching",
    )
    watch.set_defaults(func=cmd_watch)

    bench = sub.add_parser(
        "bench-report",
        help="render the BENCH_*.json perf trajectory and flag "
        "timing regressions",
    )
    bench.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="directory holding BENCH_*.json (default: repo root / "
        "BENCH_JSON_DIR)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        metavar="F",
        help="flag a *_seconds metric more than this fraction slower "
        "than the previous entry (default 0.20)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when regressions are found (CI gate); default is "
        "report-only",
    )
    bench.set_defaults(func=cmd_bench_report)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant campaign service: lease-based "
        "sharding, heartbeats, back-pressure, content-addressed "
        "result store",
    )
    serve.add_argument(
        "--root",
        default=".repro-service",
        metavar="DIR",
        help="service state directory: the result store plus one "
        "spool journal per in-flight campaign (default "
        ".repro-service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 picks an ephemeral one; the bound URL "
        "is printed on stdout)",
    )
    serve.add_argument(
        "--shard-size",
        type=int,
        default=64,
        metavar="N",
        help="faults per shard (one lease covers one shard)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=10.0,
        metavar="S",
        help="lease duration; a worker missing heartbeats for this "
        "long loses its shard to reassignment",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="max campaigns in flight before submissions get 429 + "
        "Retry-After",
    )
    serve.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="N",
        help="failed attempts before a shard is presumed poisoned "
        "and bisected (singletons fall back to the interpreter "
        "oracle and are stamped degraded)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=12,
        metavar="N",
        help="total failed attempts before the campaign is failed",
    )
    serve.add_argument(
        "--events",
        metavar="FILE",
        help="stream the service event bus (admissions, leases, "
        "expiries, bisections, store hits) to FILE as JSONL",
    )
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "shard-worker",
        help="lease, simulate and report campaign shards from a "
        "`repro serve` coordinator",
    )
    worker.add_argument(
        "url", help="service base URL (printed by `repro serve`)"
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name for leases (default host-pid)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="idle poll interval (jittered per worker)",
    )
    worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="exit 0 after completing N shards (test harnesses)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="S",
        help="exit 0 after S consecutive seconds without work",
    )
    worker.add_argument(
        "--chaos",
        metavar="SPEC",
        help="deterministic shard-level failure injection, e.g. "
        "'seed=7,kill=0.2,hang=0.1,hang_seconds=2': kill SIGKILLs "
        "the worker right after leasing, hang goes silent (no "
        "heartbeats) and reports late; both fire only on a shard's "
        "first attempt so harassed campaigns still converge",
    )
    worker.set_defaults(func=cmd_shard_worker)

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a `repro serve` coordinator and "
        "wait for the verdict (exit codes match `repro campaign`)",
    )
    submit.add_argument("url", help="service base URL")
    submit.add_argument(
        "target",
        help="'dlx' for the pipeline bug-catalog sweep, or one of "
        + ", ".join(sorted(CANONICAL_MODELS)),
    )
    _add_campaign_flags(submit, executor=False)
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the campaign view (with report once done) as JSON",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return right after admission instead of polling",
    )
    submit.add_argument(
        "--poll", type=float, default=0.2, metavar="S"
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=300.0, metavar="S"
    )
    submit.set_defaults(func=cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CannotServe as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())

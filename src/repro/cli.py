"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the reproducible figures and their one-line descriptions.
``run FIG [FIG ...] [options]``
    Run one or more figures' experiments through the scheduler
    (:mod:`repro.fleet`) and print their rows (e.g. ``run fig08``,
    ``run fig06 fig07 fig08``).  Unit jobs execute in this process, or
    with ``--workers N`` on N crash-isolated worker processes; results
    and telemetry are byte-identical either way.
``quickstart``
    The README quickstart: FLoc on a flooded link, bandwidth breakdown.
``chaos [options]``
    Seed-deterministic chaos campaigns (faults + adaptive adversaries)
    judged against resilience SLOs; violations are delta-debugged to
    minimal reproducer artifacts that ``chaos --replay FILE``
    re-executes and verifies (see :mod:`repro.chaos`).
``report DIR``
    Render what a run left in its ``--telemetry-dir``: the metrics table
    and decision-event counts of ``metrics.json``, and, when span files
    are there, the phase attribution, rollups, cross-process critical
    path and ASCII timeline of the merged trace (see :mod:`repro.trace`),
    rewriting the Perfetto-loadable ``trace.json`` from the span files.
``selfcheck [DIR]``
    The proofs CI runs, runnable anywhere (see :mod:`repro.selfcheck`):
    strict-sanitizer runs, and the same runs with and without telemetry,
    tracing, a worker fleet and process faults, compared byte for byte,
    with tracing's 25 % overhead gate.  Each check runs its commands in
    ``DIR/<check>/`` (default ``selfcheck-out/``) and prints one
    ``PASS``/``FAIL`` line; exit 0 when all pass, 1 when any fails, 2
    when DIR exists and is not empty.

``run`` and ``chaos`` (``--replay`` included) take one flag family.
``--telemetry {off,metrics,trace}``: ``metrics`` records the registry
(counters, gauges, series), ``trace`` additionally logs every FLoc
decision event keyed by simulation tick.  ``--trace``: wall-clock span
tracing of the execution fabric itself (scheduler, fleet workers,
retries, chaos campaigns, and the per-tick phases the tracer's tick
profiler times — the one answer to "where did the time go").  Every
export lands in ``--telemetry-dir`` (default ``telemetry/``):
``metrics.json``, ``metrics.prom``, ``series.csv`` and ``events.jsonl``
from telemetry, one ``spans-*.jsonl`` per process and, at the end of
the run, their merged ``trace.json`` from tracing.  Telemetry exports
are the same bytes whatever the executor.  Both are observation-only:
results and digests are byte-identical with them on or off, and
wall-clock data never reaches checkpoints.

Scale/duration flags apply to the functional figures; internet-scale
figures take ``--variants``.  Every ``run`` is supervised (see
:mod:`repro.fleet.pool`): ``--checkpoint-dir`` makes it crash-safe,
``--resume`` continues a killed run bit-identically, ``--deadline``
bounds the whole run's wall-clock time (all figures together, whatever
the executor) and ``--sanitize`` installs the runtime invariant layer on
every simulator.

Exit codes: 0 all units completed; 1 every unit failed; 2 bad
configuration or unusable checkpoint directory; 3 partial (some units
failed — completed rows are still printed and salvaged); 4 watchdog
deadline exceeded; 5 interrupted by SIGTERM/SIGINT (the running unit
finishes and is stored, no further unit starts; re-run with
``--resume`` to run the rest); 6 a poison job was quarantined
by the worker pool (its reproducer artifact path is in the status table);
7 no data — ``report`` found neither a ``metrics.json`` nor span files
in the given directory (the command says how to produce them).
``selfcheck`` exits 0 or 1 by its checks' verdicts, and 2 when its
directory is not a fresh one.
With several jobs (``run`` with multiple figures), the exit code is the
*worst* job's, and a per-job status table is printed whenever any job
ended non-ok.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import List, Optional

from .analysis.export import write_csv
from .analysis.report import format_table
from .errors import ConfigError, ReproError
from .experiments.common import FunctionalSettings
from .runner.figures import FIGURES

#: Job/fleet status -> process exit code (see module docstring).
#: ``nodata`` is not a job status: it is the documented loud exit for
#: ``report`` invoked on a directory with nothing to render.
EXIT_CODES = {
    "ok": 0,
    "failed": 1,
    "partial": 3,
    "deadline": 4,
    "interrupted": 5,
    "quarantined": 6,
    "nodata": 7,
}

def _worst_status(statuses) -> str:
    """Multi-job runs exit with the worst job's status."""
    from .fleet.pool import FLEET_STATUSES

    return max(statuses, key=FLEET_STATUSES.index, default="ok")


#: Cap for the auto-detected worker count: these workloads stop
#: scaling long before the core counts shared CI runners advertise.
_AUTO_CAP = 8


def _auto_count(value: Optional[int]) -> Optional[int]:
    """Resolve ``--workers 0`` to a detected count."""
    if value == 0:
        return min(os.cpu_count() or 1, _AUTO_CAP)
    return value


def _settings(args) -> FunctionalSettings:
    return FunctionalSettings(
        scale=args.scale,
        warmup_seconds=args.warmup,
        measure_seconds=args.seconds,
        seed=args.seed,
        sanitize=getattr(args, "sanitize", None),
    )


def _runner_log(message: str) -> None:
    """The scheduler's log sink."""
    sys.stderr.write(f"[runner] {message}\n")


def _span_files(directory: str) -> List[str]:
    """The ``spans-*.jsonl`` files in ``directory`` (none if it is missing)."""
    return sorted(glob.glob(os.path.join(glob.escape(directory), "spans-*.jsonl")))


@contextmanager
def _observation(args):
    """The observation flags' wiring around one run.

    Installs the tracer ``--trace`` asks for (a ``Tracer`` writing into
    ``--telemetry-dir``, after removing stale ``spans-*.jsonl`` left
    there by an earlier run: span files are append-only, so leftovers
    would merge into this run's timeline) and yields a namespace whose
    ``telemetry`` the caller sets to the run's telemetry.  On the way
    out the telemetry is exported, the span files are merged into
    ``trace.json`` and a summary of both is printed.
    """
    from .telemetry import NULL_TELEMETRY
    from .trace import NULL_TRACER, Tracer, use_tracer

    directory = args.telemetry_dir
    tracer = NULL_TRACER
    if args.trace:
        os.makedirs(directory, exist_ok=True)
        for path in _span_files(directory):
            os.unlink(path)
        tracer = Tracer(directory, proc="main")
    obs = SimpleNamespace(tracer=tracer, telemetry=NULL_TELEMETRY)
    with use_tracer(tracer):
        yield obs
    if obs.telemetry.enabled:
        from .telemetry.exporters import export_all

        for kind, path in sorted(export_all(obs.telemetry, directory).items()):
            sys.stdout.write(f"telemetry {kind}: {path}\n")
    if not tracer.enabled:
        return
    tracer.close()
    from .trace import analyze, merge_trace, write_chrome_trace

    trace = merge_trace(directory)
    path = write_chrome_trace(trace, os.path.join(directory, "trace.json"))
    analysis = analyze(trace)
    top = [
        f"{name} {seconds:.3f}s"
        for name, seconds in sorted(
            analysis.phases.items(), key=lambda kv: (-kv[1], kv[0])
        )[:4]
    ]
    sys.stdout.write(
        f"trace: {len(trace.spans)} span(s) from "
        f"{max(len(trace.procs), 1)} process(es) -> {path}\n"
    )
    if top:
        sys.stdout.write("trace: top phases: " + ", ".join(top) + "\n")
    sys.stdout.write(
        f"trace: load {path} in ui.perfetto.dev, or run "
        f"`repro report {directory}`\n"
    )


def _emit(args, name: str, headers, rows, title: str) -> None:
    """Print a result table; optionally mirror it to ``--csv DIR``."""
    sys.stdout.write(format_table(headers, rows, title=title))
    sys.stdout.write("\n")
    if getattr(args, "csv", None):
        path = write_csv(
            os.path.join(args.csv, f"{name}.csv"), headers, rows
        )
        sys.stdout.write(f"wrote {path}\n")


def _fig_status(freport, names: List[str]) -> str:
    """One figure's job status from the outcomes of its units' tasks
    (a unit is one task, named after it)."""
    by_name = {o.name: o for o in freport.outcomes}
    per_unit: List[str] = []
    for unit in names:
        outcome = by_name.get(unit)
        if outcome is None:
            per_unit.append(
                freport.status
                if freport.status in ("deadline", "interrupted")
                else "failed"
            )
        elif outcome.status == "quarantined":
            per_unit.append("quarantined")
        elif outcome.status in ("done", "resumed"):
            per_unit.append("ok")
        else:
            per_unit.append("failed")
    if any(s == "quarantined" for s in per_unit):
        return "quarantined"
    if per_unit and all(s == "ok" for s in per_unit):
        return "ok"
    if any(s in ("deadline", "interrupted") for s in per_unit):
        return freport.status
    return "partial" if any(s == "ok" for s in per_unit) else "failed"


@contextmanager
def _supervision(args, store, plan, **knobs):
    """What ``run`` and ``chaos`` share around the scheduler.

    Yields a namespace carrying the ``store`` to run on and ``fleet``,
    the :class:`~repro.fleet.pool.FleetOptions` the flags ask for; the
    caller runs the scheduler inside the block and leaves its
    ``FleetReport`` on ``.report``.  A spawn pool needs a shared store
    for results and telemetry pieces even when the user asked for no
    checkpoints: it is lent a scratch one, removed when the run ends
    ``ok`` and kept (its path printed) otherwise — quarantine
    reproducers live in it.  The merged telemetry and the trace go out
    through :func:`_observation`.
    """
    import shutil
    import tempfile

    from .fleet.pool import FleetOptions
    from .runner import CheckpointStore

    scratch = store is None and args.workers is not None
    if scratch:
        store = CheckpointStore(tempfile.mkdtemp(prefix="repro-fleet-"))
    timeout = args.heartbeat_timeout
    if timeout is None:
        # fast conviction under a fault plan — the heartbeat pulse runs
        # on its own thread, so 5s of silence from a live worker cannot
        # happen by accident — else a generous 30s
        timeout = 5.0 if plan is not None else 30.0
    run = SimpleNamespace(
        store=store,
        report=None,
        fleet=FleetOptions(
            workers=args.workers,
            telemetry_mode=args.telemetry,
            deadline_seconds=args.deadline,
            fault_plan=plan,
            heartbeat_timeout_seconds=timeout,
            **knobs,
        ),
    )
    with _observation(args) as obs:
        try:
            yield run
        except ReproError:
            if scratch:  # refused before any task ran: nothing to inspect
                shutil.rmtree(store.root, ignore_errors=True)
            raise
        if scratch and run.report.ok:
            shutil.rmtree(store.root, ignore_errors=True)
        elif scratch:
            sys.stderr.write(f"kept the run's scratch store: {store.root}\n")
        obs.telemetry = run.report.telemetry


def _run_figures(args) -> int:
    from .fleet.faults import sample_process_faults
    from .fleet.pool import run_fleet
    from .runner import (
        CheckpointStore,
        RetryPolicy,
        build_figure_job,
        figure_tasks,
    )

    figures = list(dict.fromkeys(args.figures))
    settings = _settings(args)
    variants = tuple(args.variants)
    args.workers = _auto_count(args.workers)
    if getattr(args, "process_faults", 0) and args.workers is None:
        raise ConfigError("--process-faults requires --workers")
    jobs = {
        fig: build_figure_job(fig, settings, variants=variants)
        for fig in figures
    }

    store = None
    root = args.resume or args.checkpoint_dir
    if root:
        store = CheckpointStore(root)
        if not args.resume and store.job is not None:
            # --checkpoint-dir without --resume restarts the job; stale
            # entries must not be mistaken for this run's results
            store.reset()

    if len(figures) == 1:
        fingerprint = jobs[figures[0]].fingerprint
    else:
        # one combined fingerprint: per-figure ones would conflict in the
        # shared store's manifest
        fingerprint = {"kind": "multi-figure", "figures": list(figures)}
        fingerprint.update(
            {
                k: v
                for k, v in jobs[figures[0]].fingerprint.items()
                if k not in ("kind", "figure")
            }
        )
        fingerprint["result_format"] = {
            fig: jobs[fig].fingerprint["result_format"] for fig in figures
        }
    tasks = [
        task
        for fig in figures
        for task in figure_tasks(fig, settings, variants=variants)
    ]
    plan = None
    if getattr(args, "process_faults", 0):
        plan = sample_process_faults(
            args.seed, [t.name for t in tasks], args.process_faults
        )
    with _supervision(
        args, store, plan,
        sanitize=settings.sanitize,
        retry=RetryPolicy(max_retries=1, seed=args.seed),
    ) as run:
        run.report = run_fleet(
            tasks, run.store, run.fleet,
            log=_runner_log, fingerprint=fingerprint,
        )
    freport, store = run.report, run.store
    results = dict(freport.results)
    statuses = {
        fig: _fig_status(freport, [name for name, _ in jobs[fig].units])
        for fig in figures
    }

    for fig in figures:
        output = jobs[fig].finalize(results)
        _emit(args, fig, output.headers, output.rows, FIGURES[fig].title)
        for note in output.notes:
            sys.stdout.write(f"{note}\n")

    worst = _worst_status(statuses.values())
    if len(figures) > 1 or worst != "ok":
        sys.stdout.write(
            format_table(
                ["job", "status"],
                [[fig, statuses[fig]] for fig in figures],
                title="job statuses",
            )
        )
        sys.stdout.write("\n")
    if worst != "ok":
        sys.stderr.write(f"job {worst}:\n")
        _write_outcomes(freport)
        if store is not None and results:
            path = store.save("salvage", "partial-results", dict(results))
            sys.stderr.write(
                f"salvaged {len(results)} unit result(s) to {path}\n"
            )
    return EXIT_CODES[worst]


def _write_outcomes(freport) -> None:
    """The per-task outcome table: which results are trustworthy."""
    for name, status, _, error in freport.summary_rows():
        suffix = f" ({error})" if error else ""
        sys.stderr.write(f"  {name}: {status}{suffix}\n")


def _quickstart(args) -> int:
    from .analysis.accounting import breakdown
    from .core.config import FLocConfig
    from .core.router import FLocPolicy
    from .traffic.scenarios import build_tree_scenario

    scenario = build_tree_scenario(
        scale_factor=args.scale, attack_kind="cbr", attack_rate_mbps=2.0,
        seed=args.seed,
    )
    scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
    monitor = scenario.add_target_monitor(start_seconds=args.warmup)
    scenario.run_seconds(args.warmup + args.seconds)
    window = scenario.units.seconds_to_ticks(args.seconds)
    result = breakdown(
        monitor,
        list(scenario.legit_flows) + list(scenario.attack_flows),
        scenario.attack_path_ids,
        scenario.capacity,
        window,
    )
    sys.stdout.write(
        format_table(
            ["category", "share"],
            [
                ["legit (clean domains)", result.legit_in_legit],
                ["legit (attack domains)", result.legit_in_attack],
                ["attack", result.attack],
            ],
            title="FLoc on a flooded link",
        )
    )
    sys.stdout.write("\n")
    return 0


def _chaos(args) -> int:
    from .chaos import (
        ChaosOptions,
        chaos_tasks,
        default_slo,
        replay_artifact,
        run_chaos,
    )
    from .runner import CheckpointStore

    if args.replay:
        from .telemetry import Telemetry, use

        with _observation(args) as obs:
            if args.telemetry != "off":
                obs.telemetry = Telemetry(mode=args.telemetry)
            with use(obs.telemetry), obs.tracer.span(
                "campaign.replay", cat="campaign", artifact=args.replay
            ) as span:
                outcome = replay_artifact(args.replay)
                obs.tracer.emit_phases(span)
        _emit(
            args,
            "chaos-replay",
            ["slo", "verdict", "detail"],
            outcome.result.report.rows(),
            f"replay of {args.replay}",
        )
        sys.stdout.write(outcome.summary() + "\n")
        return 0 if outcome.ok else 1

    slo = None
    if args.floor is not None or args.sanitize:
        # per-simulator default catalogs diverge only in the floor, so a
        # single override catalog (packet default base) covers both
        simulator = args.simulator if args.simulator != "both" else "packet"
        slo = default_slo(
            simulator, floor=args.floor, sanitize=args.sanitize or None
        )
    options = ChaosOptions(
        seed=args.seed,
        campaigns=args.campaigns,
        simulator=args.simulator,
        slo=slo,
        shrink=not args.no_shrink,
        max_shrink_trials=args.max_shrink_trials,
        artifact_dir=args.artifact_dir,
        exhaustion=args.exhaustion,
        max_tracked_paths=args.max_paths,
    )
    store = CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    args.workers = _auto_count(args.workers)
    if args.process_faults and args.workers is None:
        raise ConfigError("--process-faults requires --workers")
    plan = None
    if args.process_faults:
        from .fleet.faults import sample_process_faults

        plan = sample_process_faults(
            args.seed,
            [task.name for task in chaos_tasks(options)],
            args.process_faults,
        )
    with _supervision(args, store, plan) as run:
        report = run_chaos(options, run.store, run.fleet, log=_runner_log)
        run.report = report.job
    rows = []
    unit_names = sorted(report.job.results)
    for name, campaign in zip(unit_names, report.campaigns):
        violated = [v[0] for v in campaign["verdicts"] if v[1] != "ok"]
        rows.append(
            [
                name,
                campaign["simulator"],
                "ok" if campaign["ok"] else "VIOLATED " + ",".join(violated),
                campaign["digest"][:12],
                campaign["artifact"] or "",
            ]
        )
    _emit(
        args,
        "chaos",
        ["campaign", "simulator", "verdict", "digest", "artifact"],
        rows,
        f"chaos sweep: seed {args.seed}, {args.campaigns} campaign(s)",
    )
    for campaign in report.violations:
        shrunk = campaign["shrink"]
        if shrunk:
            sys.stdout.write(
                f"shrunk '{shrunk['slo']}' violation in {shrunk['trials']} "
                f"trial(s): removed {len(shrunk['steps'])} component(s)\n"
            )
    if report.status == "violations":
        sys.stderr.write(
            f"{len(report.violations)} campaign(s) violated an SLO; "
            f"reproducers: {report.artifacts or 'disabled'}\n"
        )
        return EXIT_CODES["partial"]
    if report.job.status != "ok":
        sys.stderr.write(f"sweep {report.job.status}:\n")
        _write_outcomes(report.job)
    return EXIT_CODES[report.job.status]


def _metric_cell(value) -> str:
    """Compact one-cell rendering of a metric's snapshot value."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        shown = ", ".join(f"{k}={v}" for k, v in items[:6])
        return shown + (", ..." if len(items) > 6 else "")
    if isinstance(value, list):
        if not value:
            return "(no points)"
        return f"{len(value)} point(s), last={value[-1]}"
    return str(value)


def _report(args) -> int:
    from .telemetry.exporters import load_metrics_json
    from .trace import merge_trace, render_report, write_chrome_trace

    directory = args.dir
    metrics = os.path.join(directory, "metrics.json")
    has_metrics = os.path.isfile(metrics)
    spans = _span_files(directory)
    if not has_metrics and not spans:
        # the documented "nothing to render" exit (code 7, see module
        # docstring) — distinct from a malformed export, which is a
        # ConfigError (exit 2)
        sys.stderr.write(
            f"error: no metrics.json and no span files (spans-*.jsonl) "
            f"in {directory}\n"
        )
        sys.stderr.write(
            "hint: produce them with `repro run FIG --telemetry metrics "
            "--trace` (both land in --telemetry-dir, default telemetry/)\n"
        )
        return EXIT_CODES["nodata"]
    if has_metrics:
        payload = load_metrics_json(metrics)
        rows = [
            [name, entry.get("kind", "?"), _metric_cell(entry.get("value"))]
            for name, entry in sorted(payload["metrics"].items())
        ]
        sys.stdout.write(
            format_table(
                ["metric", "kind", "value"],
                rows,
                title=f"telemetry export {metrics} "
                      f"(mode {payload.get('mode', '?')})",
            )
        )
        sys.stdout.write("\n")
        events = payload.get("trace")
        if events:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(
                    events.get("counts_by_kind", {}).items()
                )
            )
            sys.stdout.write(
                f"trace: {events.get('emitted_total', 0)} event(s)"
                + (f" ({kinds})" if kinds else "")
                + "\n"
            )
    if spans:
        trace = merge_trace(directory)
        path = write_chrome_trace(trace, os.path.join(directory, "trace.json"))
        sys.stdout.write(render_report(trace))
        sys.stdout.write(f"wrote {path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLoc reproduction: run the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    run = sub.add_parser("run", help="run one or more figures' experiments")
    run.add_argument(
        "figures", nargs="+", choices=sorted(FIGURES), metavar="FIG",
        help="figure name(s); several run as one multi-job session",
    )
    _add_common(run)
    run.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="run unit jobs on N supervised worker processes (the fleet: "
             "crash isolation, hang detection, checkpoint salvage); "
             "results and telemetry match the in-process run byte for byte; "
             "0 auto-detects (cpu count, capped at 8)",
    )
    run.add_argument(
        "--process-faults", type=int, metavar="N", default=0,
        help="inject N process-level faults (worker SIGKILL / heartbeat "
             "stall) into the fleet; requires --workers",
    )
    run.add_argument(
        "--variants", nargs="+", default=["f-root"],
        help="skitter-map variants for internet-scale figures",
    )
    run.add_argument(
        "--sanitize", choices=("off", "strict", "record"), default="off",
        help="runtime invariant checking: 'strict' aborts the unit on the "
             "first violation, 'record' collects violations silently",
    )
    run.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write crash-safe checkpoints to DIR (restarts any job "
             "already stored there; combine with --resume to continue it)",
    )
    run.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume from the checkpoints in DIR: completed units are "
             "loaded, the rest run from the start",
    )
    run.add_argument(
        "--deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock watchdog deadline for the whole run (all "
             "figures together, with or without --workers)",
    )
    _add_heartbeat(run)
    _add_observation(run)

    quick = sub.add_parser("quickstart", help="FLoc vs a CBR flood")
    _add_common(quick)

    chaos = sub.add_parser(
        "chaos",
        help="run seed-deterministic chaos campaigns against resilience "
             "SLOs; violations shrink to minimal replay artifacts",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="sweep seed; the full campaign list is a pure "
                            "function of it")
    chaos.add_argument("--campaigns", type=int, default=3, metavar="N",
                       help="number of campaigns to sample and run")
    chaos.add_argument("--simulator", choices=("packet", "fluid", "both"),
                       default="both",
                       help="simulator backend ('both' samples per campaign)")
    chaos.add_argument("--floor", type=float, default=None,
                       help="override the legitimate-share floor SLO")
    chaos.add_argument("--sanitize", choices=("off", "strict", "record"),
                       default=None,
                       help="override the sanitizer SLO mode "
                            "(default: strict)")
    chaos.add_argument("--exhaustion", type=int, default=0, metavar="N",
                       help="append N state-exhaustion campaigns (path-churn "
                            "flood vs the sketch backend's bounded memory "
                            "budget, judged by the bounded_state SLO)")
    chaos.add_argument("--max-paths", type=int, default=None, metavar="N",
                       help="hard per-router tracked-path budget for "
                            "--exhaustion campaigns")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="report violations without delta-debugging them")
    chaos.add_argument("--max-shrink-trials", type=int, default=64,
                       metavar="N",
                       help="trial-execution budget per shrink (default 64)")
    chaos.add_argument("--artifact-dir", metavar="DIR",
                       default="chaos-artifacts",
                       help="where reproducer JSON artifacts are written")
    chaos.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="crash-safe sweep checkpoints (completed "
                            "campaigns are not re-run)")
    chaos.add_argument("--deadline", type=float, metavar="SECONDS",
                       default=None,
                       help="wall-clock watchdog deadline for the sweep")
    chaos.add_argument("--workers", type=int, metavar="N", default=None,
                       help="run campaigns on N supervised worker "
                            "processes (digests match the in-process sweep); "
                            "0 auto-detects (cpu count, capped at 8)")
    chaos.add_argument("--process-faults", type=int, metavar="N", default=0,
                       help="inject N process-level faults (worker "
                            "SIGKILL / heartbeat stall) into the fleet "
                            "itself; requires --workers")
    chaos.add_argument("--replay", metavar="FILE", default=None,
                       help="re-execute a reproducer artifact and verify it "
                            "still fails identically (sweep flags ignored; "
                            "--telemetry and --trace apply)")
    chaos.add_argument("--csv", metavar="DIR", default=None,
                       help="also write the sweep table to DIR/chaos.csv")
    _add_heartbeat(chaos)
    _add_observation(chaos)

    report = sub.add_parser(
        "report",
        help="render a --telemetry-dir: the metrics table and event counts "
             "of metrics.json, and the phase attribution, critical path and "
             "timeline of the span files (rewriting trace.json)",
    )
    report.add_argument(
        "dir", metavar="DIR",
        help="the --telemetry-dir of a finished run",
    )

    selfcheck = sub.add_parser(
        "selfcheck",
        help="run the byte-identity, strict-sanitizer and overhead proofs "
             "CI runs, each as subprocesses in DIR/<check>/",
    )
    selfcheck.add_argument(
        "dir", metavar="DIR", nargs="?", default="selfcheck-out",
        help="a fresh or empty directory for the runs and their logs "
             "(default: selfcheck-out/)",
    )

    return parser


def _add_heartbeat(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--heartbeat-timeout", type=float, metavar="SECONDS", default=None,
        help="silence after which a worker is convicted as hung and "
             "SIGKILLed (default 30, or 5 under --process-faults)",
    )


def _add_observation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", choices=("off", "metrics", "trace"),
        default="off",
        help="record telemetry: 'metrics' keeps the registry, 'trace' "
             "additionally logs per-tick decision events; results are "
             "identical either way",
    )
    parser.add_argument(
        "--telemetry-dir", metavar="DIR", default="telemetry",
        help="directory the telemetry exports, span files and trace.json "
             "are written to (default: telemetry/)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="span-trace the execution fabric (supervisor, fleet "
             "workers, retries, per-tick phases) into per-process JSONL "
             "files merged into a Perfetto-loadable trace.json in "
             "--telemetry-dir; results and digests are byte-identical "
             "either way",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.08,
                        help="flow/capacity scale factor (1.0 = paper)")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measurement window, simulated seconds")
    parser.add_argument("--warmup", type=float, default=4.0,
                        help="warmup before measurement, simulated seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write the rows to DIR/<figure>.csv")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        rows = [[fig, FIGURES[fig].title] for fig in sorted(FIGURES)]
        sys.stdout.write(format_table(["figure", "reproduces"], rows))
        sys.stdout.write("\n")
        return 0
    try:
        if args.command == "run":
            return _run_figures(args)
        if args.command == "chaos":
            return _chaos(args)
        if args.command == "report":
            return _report(args)
        if args.command == "selfcheck":
            from .selfcheck import selfcheck

            return selfcheck(args.dir)
        return _quickstart(args)
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""``repro selfcheck [DIR]``: the repository's end-to-end proofs, runnable
anywhere.

The results here are byte-locked, and the way to show that a layer is
invisible in them is to run the same command with and without it and
compare the bytes.  :data:`CHECKS` holds every such proof:

``strict``
    Figure runs and a drop-tail CBR flood under ``--sanitize strict``,
    including a checkpointed run resumed from its own checkpoints.
``chaos-rerun``
    The seed-pinned chaos sweep twice, and its fluid-simulator twin
    twice: equal tables and artifacts.
``telemetry``
    A chaos sweep with telemetry off and ``trace``: equal tables, a
    rendered registry, an ``events.jsonl``, and the overhead gate.
``trace``
    A two-worker figure run with ``--trace`` off and on: equal tables, a
    valid Chrome trace-event file with ``main`` and worker lanes, a
    critical-path report naming the ``policy`` phase, the overhead gate.
``fleet``
    Five figures in-process and on ``--workers 2``: equal tables and
    telemetry exports.
``kill-recovery``
    ``fig13`` with a worker killed or stalled: the in-process table.
``chaos-fleet``
    The strict chaos sweep and its fluid twin, each in-process, on two
    workers, and on two workers with process faults: three equal tables
    per sweep.

Each check runs its commands as ``python -m repro ...`` subprocesses in
its own subdirectory of DIR (``DIR/<check>/``), logs their output to
``DIR/<check>/selfcheck.log``, and stops at its first failure; the next
check still runs.  One ``PASS`` or ``FAIL`` line per check names the
failing command or file.  Exit codes: 0 every check passed, 1 some
check failed, 2 DIR exists and is not an empty directory.  The checks
take no options: a change is checked by exactly what CI runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from .errors import ConfigError

#: Traced wall time may be at most ``OVERHEAD_FACTOR`` times the
#: untraced time plus ``OVERHEAD_SLACK_S`` seconds (interpreter start
#: and export writes dominate a short run).
OVERHEAD_FACTOR = 1.25
OVERHEAD_SLACK_S = 1.0

#: the directory holding the ``repro`` package, put on the subprocesses'
#: PYTHONPATH so that they run this source tree from any directory
_SRC = str(Path(__file__).resolve().parent.parent)


class CheckFailed(Exception):
    """A check's failure, naming the command or file at fault."""


def repro(command: str) -> List[str]:
    """The interpreter arguments of ``python -m repro COMMAND``."""
    return ["-m", "repro", *command.split()]


def run(cwd: Path, argv: Sequence[str]) -> Tuple[float, str]:
    """Run ``python ARGV`` in ``cwd``; its wall seconds and stdout.

    The output is appended to ``cwd/selfcheck.log``.  A non-zero exit
    raises :class:`CheckFailed` naming the command.
    """
    shown = "python " + " ".join(
        "<inline script>" if "\n" in arg else arg for arg in argv
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    seconds = time.perf_counter() - start
    log = cwd / "selfcheck.log"
    with open(log, "a", encoding="utf-8") as out:
        out.write(f"$ {shown}\n{done.stdout}{done.stderr}")
        out.write(f"exit {done.returncode} after {seconds:.2f}s\n\n")
    if done.returncode != 0:
        raise CheckFailed(f"`{shown}` exited {done.returncode} (output in {log})")
    return seconds, done.stdout


def same(cwd: Path, a: str, b: str) -> None:
    """Raise :class:`CheckFailed` unless ``cwd/a`` and ``cwd/b`` hold the
    same bytes: two equal files, or two directories with the same entries
    whose files are equal."""
    left, right = cwd / a, cwd / b
    for name, path in ((a, left), (b, right)):
        if not path.exists():
            raise CheckFailed(f"{name} is missing")
    if left.is_file() and right.is_file():
        if left.read_bytes() != right.read_bytes():
            raise CheckFailed(f"{a} and {b} differ")
        return
    if not (left.is_dir() and right.is_dir()):
        raise CheckFailed(f"{a} and {b} are not both files or both directories")
    entries = [
        {str(p.relative_to(root)): p.is_dir() for p in root.rglob("*")}
        for root in (left, right)
    ]
    only = sorted(entries[0].keys() ^ entries[1].keys())
    if only:
        raise CheckFailed(
            f"{only[0]} is only in {a if only[0] in entries[0] else b}"
        )
    for rel, is_dir in sorted(entries[0].items()):
        if is_dir != entries[1][rel]:
            raise CheckFailed(f"{rel} is a directory on one side only")
        if not is_dir and (left / rel).read_bytes() != (right / rel).read_bytes():
            raise CheckFailed(f"{rel} differs between {a} and {b}")


def gate(off_s: float, traced_s: float) -> str:
    """The overhead gate; its verdict as a line, :class:`CheckFailed` if
    the traced run took longer than the bound."""
    limit = off_s * OVERHEAD_FACTOR + OVERHEAD_SLACK_S
    verdict = f"off {off_s:.2f}s, traced {traced_s:.2f}s, limit {limit:.2f}s"
    if not traced_s <= limit:
        raise CheckFailed(f"overhead over budget: {verdict}")
    return verdict


# fig02 is the drop-tail tree without an attack; under the CBR flood every
# tick ends in tail drops, so conservation, queue-bounds, capacity and
# route-links sweep the sliced enqueue, the batched drops and the in-loop
# wire path on each of them
_DROPTAIL_FLOOD = """
import sys
from repro import build_tree_scenario
from repro.net.policy import DropTailPolicy
from repro.sanitize import install_sanitizer

scenario = build_tree_scenario(scale_factor=0.03, attack_kind="cbr", seed=3)
scenario.attach_policy(DropTailPolicy())
monitor = scenario.add_target_monitor()
install_sanitizer(scenario.engine, "strict")
scenario.engine.run(1500)
if not monitor.total_dropped > 1000:
    sys.exit(f"only {monitor.total_dropped} tail drops under the flood")
"""


def _strict(d: Path) -> str:
    commands = [
        repro("run fig02 --scale 0.05 --seconds 2 --warmup 1 "
              "--sanitize strict --checkpoint-dir ckpt/fig02"),
        # tcp/cbr/shrew attackers, route-links
        repro("run fig06 --scale 0.03 --seconds 2 --warmup 1 "
              "--sanitize strict --checkpoint-dir ckpt/fig06"),
        ["-c", _DROPTAIL_FLOOD],
        # each faults unit is a fixed chaos campaign; the fluid ones
        # install fluid_restart (warm-up branch of _admit_floc) and
        # FluidLinkDegrade (scn.link_capacity rewritten mid-run) under a
        # recording FluidSanitizer, and with --sanitize strict a unit
        # that recorded any violation fails, naming the first invariant,
        # so the run exits non-zero.  chaos-rerun's fluid sweep crosses
        # both paths too (at seed 2024 campaign 1 restarts the defense
        # and campaigns 0 and 2 degrade an uplink), with the SLO failing
        # the sweep on any violation
        repro("run faults --scale 0.05 --seconds 2 --warmup 1 "
              "--sanitize strict --checkpoint-dir ckpt/faults"),
        repro("run fig13 --variants f-root "
              "--sanitize strict --checkpoint-dir ckpt/fig13"),
        # resume determinism: fig13 from its own checkpoints
        repro("run fig13 --variants f-root --sanitize strict "
              "--resume ckpt/fig13"),
        # fig13 and faults build the localized placement; these are the
        # only strict runs of the dispersed and separated ones
        repro("run fig14 --variants f-root --sanitize strict"),
        repro("run fig15 --variants f-root --sanitize strict"),
    ]
    for argv in commands:
        run(d, argv)
    return f"{len(commands)} commands exit 0"


#: ``(directory prefix, sweep)``: the seed-pinned chaos sweep with the
#: default simulator choice (three packet campaigns at this seed), and
#: the same sweep on the fluid simulator
_CHAOS_SWEEPS = (
    ("", "chaos --seed 2024 --campaigns 3"),
    ("fluid-", "chaos --seed 2024 --campaigns 3 --simulator fluid"),
)


def _chaos_rerun(d: Path) -> str:
    details = []
    for p, sweep in _CHAOS_SWEEPS:
        arts = (f"{p}chaos-artifacts", f"{p}chaos-artifacts-2")
        for art, csv in zip(arts, (f"{p}csv1", f"{p}csv2")):
            run(d, repro(f"{sweep} --sanitize strict "
                         f"--artifact-dir {art} --csv {csv}"))
        same(d, f"{p}csv1/chaos.csv", f"{p}csv2/chaos.csv")
        if any((d / art).exists() for art in arts):
            same(d, *arts)
            details.append(f"{p}chaos.csv and artifacts equal")
        else:
            details.append(f"{p}chaos.csv equal, no artifacts")
    return "; ".join(details)


def _telemetry(d: Path) -> str:
    sweep = "chaos --seed 2024 --campaigns 2 --simulator packet --no-shrink"
    off_s, _ = run(d, repro(f"{sweep} --csv csv-off"))
    traced_s, _ = run(d, repro(
        f"{sweep} --csv csv-trace --telemetry trace --telemetry-dir telemetry"
    ))
    same(d, "csv-off/chaos.csv", "csv-trace/chaos.csv")
    run(d, repro("report telemetry"))
    if not (d / "telemetry" / "events.jsonl").is_file():
        raise CheckFailed("telemetry/events.jsonl was not written")
    return gate(off_s, traced_s)


def _trace_lanes(path: Path) -> List[str]:
    """The thread lanes of a Chrome trace-event file, after checking its
    structure."""
    try:
        events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
        bad = [
            e for e in events
            if not {"ph", "pid", "tid", "name"} <= e.keys()
            or e["ph"] not in ("M", "X", "i")
            or (e["ph"] == "X" and not ("ts" in e and "dur" in e))
        ]
        names = sorted(
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        )
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"{path.name} is not a trace-event file: {exc!r}")
    if not events or bad:
        raise CheckFailed(
            f"{path.name}: " + (f"malformed event {bad[0]}" if bad else "no events")
        )
    if "main" not in names or not any(n.startswith("w") for n in names):
        raise CheckFailed(f"{path.name}: no main or no worker lane in {names}")
    return names


def _trace(d: Path) -> str:
    fig13 = "run fig13 --variants f-root --workers 2"
    off_s, _ = run(d, repro(f"{fig13} --csv csv-off"))
    traced_s, _ = run(d, repro(
        f"{fig13} --csv csv-traced --trace --telemetry-dir trace"
    ))
    same(d, "csv-off/fig13.csv", "csv-traced/fig13.csv")
    lanes = _trace_lanes(d / "trace" / "trace.json")
    _, report = run(d, repro("report trace"))
    (d / "trace-report.txt").write_text(report, encoding="utf-8")
    if "critical path" not in report:
        raise CheckFailed("trace-report.txt has no critical path")
    # a phase this run really has: the fluid step's profiler laps
    if not re.search(r"^  policy +[0-9.]+s", report, re.MULTILINE):
        raise CheckFailed("trace-report.txt attributes no time to policy")
    return f"lanes {', '.join(lanes)}; " + gate(off_s, traced_s)


def _fleet(d: Path) -> str:
    # two packet figures and the three internet-scale (fluid) ones in
    # one multi-figure session; telemetry reads no clock, so every
    # export is compared
    figures = ("fig03", "fig04", "fig13", "fig14", "fig15")
    exports = ("metrics.json", "metrics.prom", "series.csv", "events.jsonl")
    smoke = (f"run {' '.join(figures)} --scale 0.05 --seconds 2 "
             "--warmup 1 --variants f-root --telemetry trace")
    run(d, repro(f"{smoke} --csv csv-serial --telemetry-dir tel-serial"))
    run(d, repro(
        f"{smoke} --workers 2 --csv csv-fleet --telemetry-dir tel-fleet"
    ))
    for fig in figures:
        same(d, f"csv-serial/{fig}.csv", f"csv-fleet/{fig}.csv")
    for name in exports:
        same(d, f"tel-serial/{name}", f"tel-fleet/{name}")
    return f"{len(figures)} tables and {len(exports)} exports equal"


def _kill_recovery(d: Path) -> str:
    # SIGKILL or stall a worker mid fluid run; the salvaged table is the
    # in-process one of the fleet check
    run(d, repro("run fig13 --variants f-root --workers 2 --process-faults 1 "
                 "--heartbeat-timeout 5 --csv csv-killed"))
    same(d, "../fleet/csv-serial/fig13.csv", "csv-killed/fig13.csv")
    return "fig13.csv equals the in-process table"


def _chaos_fleet(d: Path) -> str:
    executors = (
        ("serial", ""),
        ("fleet", " --workers 2"),
        ("faulted", " --workers 2 --process-faults 2"),
    )
    for p, sweep in _CHAOS_SWEEPS:
        for name, flags in executors:
            run(d, repro(f"{sweep}{flags} --sanitize strict "
                         f"--artifact-dir {p}art-{name} "
                         f"--csv {p}csv-chaos-{name}"))
        for name, _ in executors[1:]:
            same(d, f"{p}csv-chaos-serial/chaos.csv",
                 f"{p}csv-chaos-{name}/chaos.csv")
    return ("chaos.csv and fluid-chaos.csv each equal serial, on 2 workers, "
            "and under process faults")


#: name -> check; each runs in ``DIR/<name>/`` and returns its PASS detail
CHECKS: Tuple[Tuple[str, Callable[[Path], str]], ...] = (
    ("strict", _strict),
    ("chaos-rerun", _chaos_rerun),
    ("telemetry", _telemetry),
    ("trace", _trace),
    ("fleet", _fleet),
    ("kill-recovery", _kill_recovery),  # reads the fleet check's table
    ("chaos-fleet", _chaos_fleet),
)


def selfcheck(out: str) -> int:
    """Run every check in a fresh directory ``out``; the exit code."""
    root = Path(out)
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise ConfigError(
            f"{out} exists and is not an empty directory; "
            "selfcheck writes its runs into a fresh one"
        )
    failures = 0
    start = time.perf_counter()
    width = max(len(name) for name, _ in CHECKS)
    for name, check in CHECKS:
        d = root / name
        d.mkdir(parents=True)
        began = time.perf_counter()
        try:
            verdict, detail = "PASS", check(d)
        except CheckFailed as exc:
            failures += 1
            verdict, detail = "FAIL", str(exc)
        seconds = time.perf_counter() - began
        sys.stdout.write(
            f"{verdict}  {name:<{width}}  {seconds:6.1f}s  {detail}\n"
        )
        sys.stdout.flush()
    sys.stdout.write(
        f"selfcheck: {len(CHECKS) - failures} passed, {failures} failed in "
        f"{time.perf_counter() - start:.1f}s (runs and logs in {out})\n"
    )
    return 1 if failures else 0

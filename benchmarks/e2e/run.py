#!/usr/bin/env python3
"""The repository benchmark: one command prints every metric.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload tree_flood_floc --seed 3
    python3 benchmarks/e2e/run.py --trace               # plus per-layer metrics
    python3 benchmarks/e2e/run.py --selfcheck           # two sets must agree
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own fresh child process, one at a time, with
``PYTHONHASHSEED=0`` and single-threaded BLAS, so ``peak_rss_mb`` is the
workload's own and nothing else is busy while it is timed.  The child
repeats the workload a fixed number of times (``reps`` in
``workloads.py``), checks that every repetition produced the same result
digest, and reports chunk-floor times (see ``harness.py``).  With
``--trace`` it then runs one more repetition under the timing wrappers
of ``layers.py`` and the strict sanitizer, whose digest must equal the
untraced one.

After each workload's table comes one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without ``--trace``, the per-layer metrics with it.  The exit
code is non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: A child that has not finished by then is killed; the driver allows 180 s.
CHILD_TIMEOUT_S = 170.0

#: ``bench.host_noise_ratio`` above this is printed as "noisy host".
NOISY_HOST_RATIO = 1.25


# ----------------------------------------------------------------------
# child: one workload, in this process
# ----------------------------------------------------------------------
def worker(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Measure ``args.workload`` here and print its record as one line."""
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.size(args.quick)
    reps = size.reps if args.reps is None else args.reps
    m = harness.measure(workload, size, args.seed, reps)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "quick": bool(args.quick or args.reps is not None),
        "end_to_end": None,
        "harness": None,
        "per_layer": None,
        "result_digest": None,
    }
    if m.reps:
        record["result_digest"] = m.reference.digest
        record["end_to_end"] = harness.end_to_end_metrics(m)
        record["harness"] = harness.harness_metrics(m)
        if args.trace:
            names = [metric["name"] for metric in spec["per_layer"]]
            record["per_layer"] = traced_pass(workload, size, m, names)
    record["attempted"] = m.attempted
    record["failed"] = m.failed
    record["errors"] = m.errors
    print(json.dumps(record))
    return 0 if m.reps and not m.failed else 1


def traced_pass(workload, size, m, names) -> Optional[Dict[str, float]]:
    """One more repetition under the timing wrappers and the strict
    sanitizer; it is an operation, and fails if it raises or if its
    digest differs from the untraced repetitions'."""
    import harness
    from layers import LayerTrace

    m.attempted += 1
    trace = LayerTrace()
    try:
        rep, live = harness.run_repetition(
            workload, size, m.seed,
            wrap=trace.wrap_policy,
            on_built=trace.instrument,
            on_chunk=trace.on_chunk,
        )
        if trace.sanitizer is None or not trace.sanitizer.report.ok:
            m.fail("traced pass: the sanitizer was not installed or "
                   "recorded a violation")
            return None
        if rep.outcome.digest != m.reference.digest:
            m.fail(
                f"traced pass digest {rep.outcome.digest[:16]} != untraced "
                f"{m.reference.digest[:16]}"
            )
            return None
        metrics = trace.metrics(names, rep, live, m, str(OUT_DIR))
    except Exception:  # boundary: a failed traced pass is a failed operation
        m.fail(f"traced pass raised\n{traceback.format_exc()}")
        return None
    metrics.update(harness.harness_metrics(m))  # final counts, after this pass
    trace.write(str(OUT_DIR / f"trace-{workload.name}.jsonl"))
    return metrics


# ----------------------------------------------------------------------
# parent: spawn, print, store
# ----------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh interpreter; ``None`` if it produced
    no record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        ),
    )
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child
        print(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name}: child exited {done.returncode} without a record",
              file=sys.stderr)
        return None
    return record if record.get("end_to_end") else None


def contract_line(record: Dict[str, Any], trace: int, units: Dict[str, str]) -> str:
    """The driver's result object for one workload run."""
    values = (record["per_layer"] or {}) if trace else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        }
    )


def print_record(record: Dict[str, Any], trace: int, units: Dict[str, str]) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  "
        f"failed_ops {record['failed']} / attempted_ops {record['attempted']}"
        f"{'  (quick: not comparable)' if record['quick'] else ''}"
    )
    print(f"   result_digest {record['result_digest']}")
    layers = record["per_layer"] or {}
    for name, value in {**record["end_to_end"], **layers}.items():
        print(f"   {name:<34} {value:>16.6f} {units[name]}")
    if layers.get("bench.host_noise_ratio", 0.0) > NOISY_HOST_RATIO:
        print("   noisy host: the median repetition took "
              f"{layers['bench.host_noise_ratio']:.2f}x the floor")
    print(contract_line(record, trace, units), flush=True)


def run_suite(
    args: argparse.Namespace, names: List[str], spec: Dict[str, Any]
) -> Optional[List[Dict[str, Any]]]:
    """Run ``names`` one after another; ``None`` if a child gave no record."""
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    records = []
    for name in names:
        record = run_child(name, args)
        if record is None:
            return None
        print_record(record, args.trace, units)
        records.append(record)
    return records


def store(path: str, args: argparse.Namespace, records: List[Dict[str, Any]]) -> None:
    """Append this run to ``path`` (created if missing), so that repeated
    invocations collect the runs ``--compare`` pairs up."""
    document: Dict[str, Any] = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") != 1 or "runs" not in document:
            raise SystemExit(f"{path} is not an e2e benchmark result file")
    document["runs"].append(
        {
            "seed": args.seed,
            "quick": any(r["quick"] for r in records),
            "workloads": {r["workload"]: r for r in records},
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def selfcheck(args: argparse.Namespace, names: List[str], spec: Dict[str, Any]) -> int:
    """Two full sets of the same commit must agree within the bounds."""
    import compare_runs

    first = run_suite(args, names, spec)
    second = run_suite(args, names, spec)
    if first is None or second is None:
        return 1
    bad = sum(r["failed"] for r in first + second)
    print(f"{'workload':<22}{'metric':<16}{'first':>16}{'second':>16}"
          f"{'gap':>9}{'bound':>8}")
    for a, b in zip(first, second):
        if a["result_digest"] != b["result_digest"]:
            print(f"{a['workload']}: result_digest differs between the sets")
            bad += 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            gap = abs(compare_runs.worsening(va, vb, metric["better"]))
            # the two sets share a seed, so a simulated statistic must repeat
            bound = compare_runs.EXACT.get(name, metric["bound"])
            ok = gap <= bound
            bad += not ok
            print(f"{a['workload']:<22}{name:<16}{va:>16.6f}{vb:>16.6f}"
                  f"{gap:>9.2%}{bound:>8.2g}{'' if ok else '  DISAGREE'}")
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="FLoc reproduction end-to-end benchmark",
        epilog="see benchmarks/e2e/README.md",
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="passed by the benchmark driver; must be "
                             "run_seconds of BENCHMARK.json, which the fixed "
                             "repetition counts are sized to")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced pass; the result line "
                             "then carries the per-layer metrics")
    parser.add_argument("--out", help="append this run to a JSON result file")
    parser.add_argument("--reps", type=int,
                        help="smoke use: exactly this many repetitions")
    parser.add_argument("--quick", action="store_true",
                        help="smoke use: tiny scenarios, two repetitions")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice; fail unless the two "
                             "sets agree within the bounds")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --out files")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")

    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.compare:
        import compare_runs

        return compare_runs.main(args.compare[0], args.compare[1], spec)
    if args.seconds not in (None, float(spec["run_seconds"])):
        parser.error(
            f"a run measures for run_seconds = {spec['run_seconds']} s, as "
            "BENCHMARK.json fixes it; use --reps or --quick for a smoke run"
        )
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose {names}")
        names = [args.workload]
    if args.worker:
        return worker(args, spec)
    if args.selfcheck:
        return selfcheck(args, names, spec)
    records = run_suite(args, names, spec)
    if records is None:
        return 1
    if args.out:
        store(args.out, args, records)
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())

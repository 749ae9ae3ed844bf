#!/usr/bin/env python
"""Fleet speedup benchmark: in-process vs ``--workers N`` wall times.

Runs the same two workloads the CI fleet lane exercises — a small
figure sweep (fig03 + fig04) and a seed-pinned chaos sweep — once on
the scheduler's in-process executor ("serial") and once on its spawn
pool, verifies the results are identical (the scheduler's whole
contract), and records wall times in ``BENCH_fleet.json``.

The recorded ``cores`` field matters for reading the numbers: on a
single-core box the fleet *cannot* be faster than serial — it pays
spawn + checkpoint overhead for no parallelism.  The committed
``BENCH_fleet.json`` is a run with ``cores == workers == 2``.  Only the
chaos arm is coarse enough to be a speedup claim; the figures arm is
two ~30 ms units and measures the pool's fixed overhead.

Usage::

    PYTHONPATH=src python benchmarks/fleet_bench.py [--workers N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import sys
import tempfile
import time

from repro.chaos.engine import ChaosOptions, chaos_tasks, run_chaos
from repro.experiments.common import FunctionalSettings
from repro.fleet import FleetOptions, run_fleet
from repro.runner import CheckpointStore, figure_tasks

FIGURES = ("fig03", "fig04")


def _settings() -> FunctionalSettings:
    return FunctionalSettings(
        scale=0.05, warmup_seconds=1.0, measure_seconds=2.0, seed=7
    )


def _chaos_options() -> ChaosOptions:
    return ChaosOptions(
        seed=2024, campaigns=3, simulator="both", shrink=False,
        artifact_dir=None,
    )


def _fresh_store(scratch: str, label: str) -> CheckpointStore:
    path = os.path.join(scratch, label)
    shutil.rmtree(path, ignore_errors=True)
    return CheckpointStore(path)


def bench_figures(workers: int, scratch: str) -> dict:
    settings = _settings()
    tasks = [t for fig in FIGURES for t in figure_tasks(fig, settings)]

    start = time.perf_counter()
    serial = run_fleet(tasks).results  # the in-process executor
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fleet = run_fleet(
        tasks,
        _fresh_store(scratch, "figures"),
        FleetOptions(workers=workers),
    )
    fleet_seconds = time.perf_counter() - start

    if fleet.status != "ok":
        raise SystemExit(f"figure fleet ended {fleet.status}, not ok")
    for name, value in serial.items():
        if pickle.dumps(fleet.results[name]) != pickle.dumps(value):
            raise SystemExit(f"figure fleet diverged from serial on {name}")

    return {
        "units": len(tasks),
        "serial_seconds": round(serial_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "speedup": round(serial_seconds / fleet_seconds, 3),
        "results_identical": True,
    }


def bench_chaos(workers: int, scratch: str) -> dict:
    start = time.perf_counter()
    serial = run_chaos(_chaos_options())
    serial_seconds = time.perf_counter() - start
    if serial.job.status != "ok":
        raise SystemExit(f"serial chaos sweep ended {serial.job.status}")

    tasks = chaos_tasks(_chaos_options())
    start = time.perf_counter()
    fleet = run_fleet(
        tasks,
        _fresh_store(scratch, "chaos"),
        FleetOptions(workers=workers),
    )
    fleet_seconds = time.perf_counter() - start

    if fleet.status != "ok":
        raise SystemExit(f"chaos fleet ended {fleet.status}, not ok")
    serial_digests = {
        name: serial.job.results[name]["digest"]
        for name in serial.job.results
    }
    fleet_digests = {
        name: fleet.results[name]["digest"] for name in fleet.results
    }
    if serial_digests != fleet_digests:
        raise SystemExit("chaos fleet digests diverged from serial")

    return {
        "campaigns": len(tasks),
        "serial_seconds": round(serial_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "speedup": round(serial_seconds / fleet_seconds, 3),
        "digests_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="fleet size (default: min(4, cpu count))",
    )
    parser.add_argument(
        "--out", default="BENCH_fleet.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    workers = args.workers if args.workers is not None else min(4, max(2, cores))
    scratch = tempfile.mkdtemp(prefix="fleet-bench-")
    try:
        print(f"cores={cores} workers={workers}", file=sys.stderr)
        print("benchmarking figure sweep (fig03+fig04)...", file=sys.stderr)
        figures = bench_figures(workers, scratch)
        print("benchmarking chaos sweep (3 campaigns, both sims)...",
              file=sys.stderr)
        chaos = bench_chaos(workers, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "schema": 1,
        "cores": cores,
        "workers": workers,
        "note": (
            "the chaos arm is the speedup claim and needs cores >= "
            "workers to show one; the figures arm (two ~30 ms units) "
            "measures the pool's spawn + checkpoint overhead, not a "
            "workload, so its ratio is << 1 on any machine"
        ),
        "figures": figures,
        "chaos": chaos,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

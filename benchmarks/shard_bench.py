#!/usr/bin/env python
"""Shard-parallel fluid-simulator benchmark at 10^6 flows.

Builds a million-flow internet scenario (~950k bots + 100k legitimate
sources over ~1200 ASes), runs it once serially and once sharded over a
fleet of lock-step workers — with a planned SIGKILL against one shard
worker mid-run, so the barrier-epoch checkpoint/salvage path is part of
the measured run, not a separate test — verifies the merged result is
byte-identical to serial, and records wall times in ``BENCH_shard.json``.

The recorded ``cores`` field matters for reading the numbers: sharding
pays spawn, per-tick file exchange, and per-epoch checkpoints of
million-element state arrays; on a single-core box it cannot beat
serial, and even on multicore boxes the exchange overhead means the
speedup is honest only for big per-tick work (which 10^6 flows is).

Usage::

    PYTHONPATH=src python benchmarks/shard_bench.py [--shards N] [--out FILE]
    PYTHONPATH=src python benchmarks/shard_bench.py --small   # CI-sized
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

from repro.fleet import (
    FleetOptions,
    ProcessFault,
    ProcessFaultPlan,
    run_fleet,
)
from repro.inet.scenarios import build_internet_scenario
from repro.inet.shard import merge_shard_results
from repro.inet.simulator import FluidSimulator
from repro.runner import CheckpointStore, ShardUnitTask

FULL = {
    "n_as": 1200,
    "n_legit_sources": 100_000,
    "n_legit_ases": 300,
    "n_bots": 950_000,
    "target_capacity": 50_000.0,
    "ticks": 60,
    "warmup": 30,
    "seed": 7,
    "build_flow_links": False,
}

#: CI-sized variant: same code paths (fault included), ~50x fewer flows.
SMALL = dict(
    FULL,
    n_as=300,
    n_legit_sources=2_000,
    n_legit_ases=60,
    n_bots=20_000,
    target_capacity=1_000.0,
)

EPOCH_TICKS = 20
STRATEGY = "floc"
UNIT = "bench:fluid"


def _scenario(cfg: dict):
    return build_internet_scenario(
        variant="f-root",
        placement="localized",
        n_as=cfg["n_as"],
        n_legit_sources=cfg["n_legit_sources"],
        n_legit_ases=cfg["n_legit_ases"],
        n_bots=cfg["n_bots"],
        target_capacity=cfg["target_capacity"],
        seed=cfg["seed"],
        build_flow_links=cfg["build_flow_links"],
    )


def _tasks(cfg: dict, n_shards: int):
    return [
        ShardUnitTask(
            figure="fig13",
            unit=UNIT,
            variant="f-root",
            placement="localized",
            label="bench",
            strategy=STRATEGY,
            s_max=None,
            shard=shard,
            n_shards=n_shards,
            epoch_ticks=EPOCH_TICKS,
            barrier_timeout_seconds=300.0,
            settings=dict(cfg),
        )
        for shard in range(n_shards)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: min(2, cpu count))",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="CI-sized run (~22k flows) instead of the 10^6-flow scenario",
    )
    parser.add_argument(
        "--out", default="BENCH_shard.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    cfg = SMALL if args.small else FULL
    cores = os.cpu_count() or 1
    shards = args.shards if args.shards is not None else max(2, min(2, cores))

    start = time.perf_counter()
    scenario = _scenario(cfg)
    build_seconds = time.perf_counter() - start
    n_flows = scenario.n_flows
    print(
        f"cores={cores} shards={shards} flows={n_flows:,} "
        f"(scenario build {build_seconds:.2f}s)",
        file=sys.stderr,
    )

    print("serial run...", file=sys.stderr)
    sim = FluidSimulator(
        scenario, strategy=STRATEGY, seed=cfg["seed"]
    )
    start = time.perf_counter()
    serial = sim.run(ticks=cfg["ticks"], warmup=cfg["warmup"])
    serial_seconds = time.perf_counter() - start

    # the kill lands mid-run on shard 0's worker: the supervisor must
    # convict it, respawn, and resume the shard from its last barrier-
    # epoch checkpoint while the surviving shards wait at the barrier
    tasks = _tasks(cfg, shards)
    plan = ProcessFaultPlan(
        faults=(
            ProcessFault(
                task=tasks[0].name,
                kind="kill_worker",
                delay_seconds=max(0.3, serial_seconds / 4.0),
            ),
        )
    )
    scratch = tempfile.mkdtemp(prefix="shard-bench-")
    try:
        print(f"sharded run ({shards} workers, 1 planned SIGKILL)...",
              file=sys.stderr)
        start = time.perf_counter()
        fleet = run_fleet(
            tasks,
            CheckpointStore(os.path.join(scratch, "store")),
            FleetOptions(
                workers=shards,
                fault_plan=plan,
                heartbeat_timeout_seconds=5.0,
                max_worker_deaths=3,
            ),
        )
        shard_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if fleet.status != "ok":
        raise SystemExit(f"sharded run ended {fleet.status}, not ok")
    merged = merge_shard_results([fleet.results[t.name] for t in tasks])
    if pickle.dumps(merged) != pickle.dumps(serial):
        raise SystemExit("sharded result diverged from serial")
    deaths = {o.name: o.worker_deaths for o in fleet.outcomes}

    payload = {
        "schema": 1,
        "cores": cores,
        "shards": shards,
        "flows": n_flows,
        "n_as": cfg["n_as"],
        "ticks": cfg["ticks"],
        "epoch_ticks": EPOCH_TICKS,
        "strategy": STRATEGY,
        "scenario_build_seconds": round(build_seconds, 4),
        "serial_seconds": round(serial_seconds, 4),
        "shard_seconds": round(shard_seconds, 4),
        "speedup": round(serial_seconds / shard_seconds, 3),
        "worker_deaths": deaths,
        "killed_shard_salvaged": deaths.get(tasks[0].name, 0) >= 1,
        "result_identical": True,
        "note": (
            "shard_seconds includes one SIGKILLed shard worker salvaged "
            "from its barrier-epoch checkpoint; sharding pays spawn + "
            "per-tick file exchange + per-epoch checkpoints, so speedup "
            "needs cores >= shards and large per-tick work"
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

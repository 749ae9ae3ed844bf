#!/usr/bin/env python
"""Exact-vs-sketch router state ablation: memory bound and accuracy.

Four measurements, recorded in ``BENCH_sketch.json``:

1. **Churn memory** — drive the router's path-state tier with up to 10^6
   distinct path identifiers (the ``PathChurnFloodSource`` pressure,
   minus the packet plumbing) under ``tracemalloc`` and record peak
   traced memory per backend: unbounded exact state grows linearly with
   identifier count; the sketch backend must stay flat at its configured
   budget no matter how many identifiers churn past.
2. **Engine memory** — the router, not the loop: the Fig. 5 tree at
   scale 0.1 with stale-capability and re-handshaking churn bots against
   a 64-path budget, through ``Engine.run`` under ``tracemalloc``, per
   bounded backend.  Peak traced memory after 1,000 and after 4,000
   ticks, with the router's container census beside it: whatever the
   admission path keeps per packet (drop records, memo entries, blocks)
   shows as growth between the two, which arm 1 cannot see.
3. **Fold/seed accuracy** — fold known per-path rate EWMAs into
   :class:`~repro.sketch.BoundedPathState` tiers of several widths and
   read them back, reporting mean/max absolute seed error and collision
   rate per memory budget (the measured estimate-error side of the
   sketch's memory guarantee).
4. **End-to-end guarantee error** — one seed-pinned state-exhaustion
   campaign executed per backend at the same path budget; the worst
   fault-free-window legitimate share difference is the price the
   bounded tier pays on the paper's differential guarantee.

``--ci`` shrinks the identifier counts ~10x, writes
``BENCH_sketch.ci.json``, and turns the sketch-backend memory bound
into a hard gate: exit 1 if sketch-mode peak traced memory exceeds
``--memory-budget-mb`` (default 64) or grows with identifier count, or
if either engine arm exceeds that ceiling or grows from tick 1,000 to
tick 4,000 by more than :data:`ENGINE_GROWTH_SLACK`.

Usage::

    PYTHONPATH=src python benchmarks/sketch_bench.py [--ci] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.net.engine import Engine
from repro.net.topology import Topology
from repro.sketch import BoundedPathState
from repro.traffic import PathChurnFloodSource
from repro.traffic.scenarios import build_tree_scenario

#: Identifier counts per churn arm.  Exact-unbounded is capped at 10^5
#: identifiers — the point of that arm is the slope, and a million live
#: _PathState objects is exactly the blow-up the sketch tier exists to
#: avoid.
FULL_COUNTS = {
    "exact-unbounded": (10_000, 100_000),
    "exact-lru": (10_000, 100_000, 1_000_000),
    "sketch": (10_000, 100_000, 1_000_000),
}
CI_COUNTS = {
    "exact-unbounded": (10_000, 50_000),
    "exact-lru": (10_000, 100_000),
    "sketch": (10_000, 100_000, 1_000_000),
}

#: Path budget shared by the bounded arms (exact-lru hot set = sketch
#: hot tier) and the end-to-end campaigns.
PATH_BUDGET = 1024

#: Engine arm: hot-tier budget, the ticks at which peak traced memory is
#: read, and how much the second reading may exceed the first — 10 % plus
#: 1 MiB covers queue and in-flight jitter, while churn bots at one
#: identifier a tick against a 2,000-tick drop-record horizon would add
#: tens of MiB if anything per-identifier outlived its path.
ENGINE_BUDGET = 64
ENGINE_CHECKPOINTS = (1_000, 4_000)
ENGINE_GROWTH_SLACK = (1.10, 1.0)

#: ValueSketch widths for the accuracy sweep (columns; memory per tier
#: scales linearly with width).
ACCURACY_WIDTHS = (1024, 4096, 16384)
ACCURACY_PATHS = 50_000


def _policy(backend: str, bounded: bool) -> FLocPolicy:
    topo = Topology()
    topo.add_duplex_link("a", "b", capacity=10.0, buffer=50)
    engine = Engine(topo, seed=1)
    kwargs = {}
    if backend == "sketch":
        kwargs = dict(state_backend="sketch", sketch_hot_paths=PATH_BUDGET)
    elif bounded:
        kwargs = dict(max_tracked_paths=PATH_BUDGET)
    policy = FLocPolicy(FLocConfig(**kwargs))
    policy.attach(topo.link("a", "b"), engine)
    return policy


def churn_arm(arm: str, n_ids: int) -> dict:
    """Touch ``n_ids`` distinct path identifiers; report peak memory."""
    policy = _policy(
        "sketch" if arm == "sketch" else "exact",
        bounded=arm == "exact-lru",
    )
    tracemalloc.start()
    start = time.perf_counter()
    for i in range(n_ids):
        policy._path_state((10_000_000 + i, 1), tick=i)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "arm": arm,
        "path_ids": n_ids,
        "peak_traced_mb": round(peak / 2**20, 3),
        "tracked_paths": len(policy.paths),
        "evictions": policy.eviction_stats["memory-pressure"],
        "seconds": round(seconds, 3),
    }


def engine_arm(arm: str) -> dict:
    """The churn flood through ``Engine.run``; peak memory per checkpoint.

    The scenario of the ``tree_churn_sketch`` end-to-end workload: the
    Fig. 5 tree at scale 0.1 with legitimate TCP only, six bots per
    attack leaf over 10^6 identifiers — even bots re-handshake every 20
    ticks (tracked state), odd bots keep a stale capability and churn
    every tick (forged packets).
    """
    tracemalloc.start()
    scenario = build_tree_scenario(
        scale_factor=0.1, attack_kind="none", seed=3
    )
    engine, topology = scenario.engine, scenario.topology
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    start_rng = engine.spawn_rng("sketch-bench-start")
    bot = 0
    for pid in scenario.attack_path_ids:
        for i in range(6):
            host = f"c_{pid[0]}_{i}"
            topology.add_duplex_link(host, leaf_of_as[pid[0]], capacity=None)
            flow = engine.open_flow(
                host, scenario.servers[0], pid, is_attack=True
            )
            rehandshake = bot % 2 == 0
            engine.add_source(
                PathChurnFloodSource(
                    flow,
                    rate,
                    churn_interval=20 if rehandshake else 1,
                    id_space=10**6,
                    rehandshake=rehandshake,
                    start_tick=start_rng.randrange(250),
                )
            )
            bot += 1
    if arm == "sketch":
        cfg = FLocConfig(state_backend="sketch", sketch_hot_paths=ENGINE_BUDGET)
    else:
        cfg = FLocConfig(max_tracked_paths=ENGINE_BUDGET)
    policy = FLocPolicy(cfg)
    scenario.attach_policy(policy)
    start = time.perf_counter()
    checkpoints = []
    for ticks in ENGINE_CHECKPOINTS:
        engine.run(ticks - engine.tick)
        _, peak = tracemalloc.get_traced_memory()
        checkpoints.append(
            {
                "ticks": ticks,
                "peak_traced_mb": round(peak / 2**20, 3),
                "census": policy.state_census(),
            }
        )
    seconds = time.perf_counter() - start
    tracemalloc.stop()
    return {
        "arm": arm,
        "path_budget": ENGINE_BUDGET,
        "checkpoints": checkpoints,
        "state_peaks": dict(policy.state_peaks),
        "spoofed_drops": policy.drop_stats["spoofed"],
        "evictions": policy.eviction_stats["memory-pressure"],
        "seconds": round(seconds, 3),
    }


def accuracy_arm(width: int, n_paths: int) -> dict:
    """Fold known rates, seed them back, measure the estimate error."""
    tier = BoundedPathState(width, depth=4)
    for i in range(n_paths):
        tier.fold_path((i,), lambda_rate=float(i % 50) / 10.0,
                       rtt_ewma=20.0, conformance=0.5)
    abs_errors = []
    for i in range(0, n_paths, max(1, n_paths // 2000)):
        seeded = tier.seed_path((i,))
        assert seeded is not None
        abs_errors.append(abs(seeded[0] - float(i % 50) / 10.0))
    return {
        "sketch_width": width,
        "memory_mb": round(tier.memory_bytes / 2**20, 3),
        "folded_paths": n_paths,
        "mean_abs_error_pkts_per_tick": round(
            sum(abs_errors) / len(abs_errors), 4
        ),
        "max_abs_error_pkts_per_tick": round(max(abs_errors), 4),
        "collision_rate": round(tier.collisions_total / n_paths, 4),
        "fill_ratio": round(tier.lambda_sketch.fill_ratio(), 4),
    }


def end_to_end_arm() -> dict:
    """Same exhaustion campaign per backend at one path budget."""
    from repro.chaos.campaign import execute_campaign
    from repro.chaos.slo import impact_interval, _overlaps  # noqa: F401
    from repro.chaos.spec import exhaustion_campaign

    shares = {}
    for backend in ("exact", "sketch"):
        spec = exhaustion_campaign(
            0, 0, state_backend=backend, max_tracked_paths=PATH_BUDGET
        )
        m = execute_campaign(spec)
        shares[backend] = round(
            min(w.legit_share for w in m.windows), 4
        )
    return {
        "path_budget": PATH_BUDGET,
        "worst_window_legit_share": shares,
        "guarantee_error": round(shares["exact"] - shares["sketch"], 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ci", action="store_true",
                        help="smaller counts, hard memory gate, "
                             "BENCH_sketch.ci.json default output")
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--memory-budget-mb", type=float, default=64.0,
                        help="--ci gate: max sketch-arm peak traced MiB")
    args = parser.parse_args(argv)
    out = args.out or ("BENCH_sketch.ci.json" if args.ci else
                       "BENCH_sketch.json")
    counts = CI_COUNTS if args.ci else FULL_COUNTS

    churn = []
    for arm, sizes in counts.items():
        for n_ids in sizes:
            row = churn_arm(arm, n_ids)
            churn.append(row)
            print(json.dumps(row), file=sys.stderr)

    engine_memory = []
    for arm in ("exact-lru", "sketch"):
        row = engine_arm(arm)
        engine_memory.append(row)
        print(json.dumps(row), file=sys.stderr)

    accuracy = [
        accuracy_arm(width, ACCURACY_PATHS) for width in ACCURACY_WIDTHS
    ]
    end_to_end = None if args.ci else end_to_end_arm()

    sketch_rows = [r for r in churn if r["arm"] == "sketch"]
    sketch_peaks = [r["peak_traced_mb"] for r in sketch_rows]
    payload = {
        "schema": 1,
        "mode": "ci" if args.ci else "full",
        "path_budget": PATH_BUDGET,
        "churn_memory": churn,
        "sketch_peak_mb_at_max_ids": sketch_peaks[-1],
        "engine_memory": engine_memory,
        "accuracy_per_budget": accuracy,
        "end_to_end": end_to_end,
        "note": (
            "churn_memory: tracemalloc peak for the allocate/evict loop "
            "only; exact-unbounded grows with path_ids, the sketch arm "
            "must not (bounded-memory contract).  engine_memory: "
            "tracemalloc peak from scenario build through Engine.run, "
            "cumulative at each checkpoint; neither bounded backend may "
            "grow between them"
        ),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(payload, indent=2))

    if args.ci:
        # hard gates: flat sketch memory across a 100x identifier range,
        # and an absolute ceiling
        worst = max(sketch_peaks)
        if worst > args.memory_budget_mb:
            print(
                f"GATE FAIL: sketch peak {worst} MiB > budget "
                f"{args.memory_budget_mb} MiB",
                file=sys.stderr,
            )
            return 1
        if sketch_peaks[-1] > sketch_peaks[0] * 1.5 + 1.0:
            print(
                f"GATE FAIL: sketch peak grew with identifier count "
                f"({sketch_peaks[0]} -> {sketch_peaks[-1]} MiB)",
                file=sys.stderr,
            )
            return 1
        factor, offset = ENGINE_GROWTH_SLACK
        for row in engine_memory:
            first, last = (c["peak_traced_mb"] for c in row["checkpoints"])
            if last > args.memory_budget_mb:
                print(
                    f"GATE FAIL: {row['arm']} engine peak {last} MiB > "
                    f"budget {args.memory_budget_mb} MiB",
                    file=sys.stderr,
                )
                return 1
            if last > first * factor + offset:
                print(
                    f"GATE FAIL: {row['arm']} engine peak grew with run "
                    f"length ({first} -> {last} MiB)",
                    file=sys.stderr,
                )
                return 1
        print("memory gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

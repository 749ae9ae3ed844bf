"""The traced pass: outside-in timing wrappers, spans, per-layer metrics.

End-to-end metrics are measured with none of this installed.  One extra
repetition per workload runs with timing wrappers placed *around* the
calls into each layer, all of them written here and none inside
``src/``:

* :class:`TimedPolicy`, a ``LinkPolicy`` that delegates to the real
  policy and times ``admit``/``on_drop``/``on_tick``;
* instance-level wrappers on each traffic source's
  ``on_tick``/``on_ack``/``on_synack``;
* a tick hook that samples link counters, bracketed with a second hook
  so the strict sanitizer installed between them is timed too;
* a timer around ``FluidSimulator.step_run``;
* micro-loops over public functions (capability, token bucket, MTD
  tracker, sketch, topology lookup, shard barrier) fed with the
  workload's own identifiers.

Spans are ``(id, name, start, end, parent, calls)``.  Every timed chunk
of ticks is one parent span with one aggregated child per layer (its
duration is the layer's busy time inside the chunk, ``calls`` the number
of calls).  Layers never nest inside one chunk — sources run before
links are processed — so a parent's self time is its duration minus the
sum of its children.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from harness import Measurement, Repetition, percentile
from workloads import FluidRun, TreeRun

from repro.core.capability import CapabilityIssuer
from repro.core.config import FLocConfig
from repro.core.mtd import FlowDropTracker
from repro.core.tokenbucket import PathTokenBucket
from repro.inet.shard import BarrierExchange, ShardSpec, partition_scenario
from repro.net.policy import LinkPolicy
from repro.sanitize import install_sanitizer
from repro.sketch import BoundedPathState, sketch_indices

_clock = time.perf_counter


# ----------------------------------------------------------------------
# timing wrappers
# ----------------------------------------------------------------------
class LayerClock:
    """Busy seconds and call counts per layer since the last flush.

    A layer's cell is a two-element list ``[busy seconds, calls]`` that
    the wrappers update in place, which keeps a wrapped call at two clock
    reads and two additions.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, List[float]] = {}

    def cell(self, layer: str) -> List[float]:
        return self._cells.setdefault(layer, [0.0, 0])

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call is charged to ``layer``."""
        cell = self.cell(layer)

        def wrapper(*args: Any) -> Any:
            start = _clock()
            result = fn(*args)
            cell[0] += _clock() - start
            cell[1] += 1
            return result

        return wrapper

    def flush(self) -> Dict[str, Tuple[float, int]]:
        """Layers used since the last flush, and reset."""
        out = {}
        for layer, cell in self._cells.items():
            if cell[1]:
                out[layer] = (cell[0], int(cell[1]))
                cell[0] = 0.0
                cell[1] = 0
        return out


class TimedPolicy(LinkPolicy):
    """Delegates every engine-facing hook to ``inner`` and times it."""

    def __init__(self, inner: LinkPolicy, clock: LayerClock) -> None:
        self.inner = inner
        self._admit = clock.cell("core.policy.admit")
        self._on_drop = clock.cell("core.policy.on_drop")
        self._on_tick = clock.cell("core.policy.on_tick")
        self.admit_samples: List[float] = []  # seconds per admit() call
        self.admitted = 0
        self.on_tick_max = 0.0

    def __getattr__(self, name: str) -> Any:
        # the sanitizer inspects groups/tracker/plan on the link's policy
        return getattr(self.__dict__["inner"], name)

    def attach(self, link, engine) -> None:
        super().attach(link, engine)
        self.inner.attach(link, engine)

    def on_tick(self, tick: int) -> None:
        start = _clock()
        self.inner.on_tick(tick)
        spent = _clock() - start
        if spent > self.on_tick_max:
            self.on_tick_max = spent
        self._on_tick[0] += spent
        self._on_tick[1] += 1

    def admit(self, pkt, tick: int) -> bool:
        start = _clock()
        ok = self.inner.admit(pkt, tick)
        spent = _clock() - start
        self.admit_samples.append(spent)
        if ok:
            self.admitted += 1
        self._admit[0] += spent
        self._admit[1] += 1
        return ok

    def batch_admit(self, arrivals, tick: int):
        start = _clock()
        admitted = self.inner.batch_admit(arrivals, tick)
        self._admit[0] += _clock() - start
        if admitted is not None:
            # no admit() call follows a whole-tick answer: count it here
            self._admit[1] += len(arrivals)
            self.admitted += len(admitted)
        return admitted

    def on_drop(self, pkt, tick: int) -> None:
        start = _clock()
        self.inner.on_drop(pkt, tick)
        self._on_drop[0] += _clock() - start
        self._on_drop[1] += 1

    def pending_drop_cause(self) -> Optional[str]:
        return self.inner.pending_drop_cause()


class LinkSampler:
    """Tick hook: per-tick link activity and target-queue depth.

    A link is *idle* in a tick when it serviced and dropped nothing.
    :meth:`mark` is installed as a hook *before* the sanitizer and the
    sampler itself after it, so the gap between them is the sanitizer's
    time.
    """

    def __init__(self, engine, target, clock: LayerClock) -> None:
        self._sanitizer = clock.cell("harness.sanitizer")
        self._self = clock.cell("harness.sampler")
        self.links = list(engine.topology.links())
        self.target = target
        self._last = [0] * len(self.links)
        self._marked = _clock()
        self.idle_link_ticks = 0
        self.link_ticks = 0
        self.depths: List[int] = []

    def mark(self, engine, tick: int) -> None:
        self._marked = _clock()

    def __call__(self, engine, tick: int) -> None:
        start = _clock()
        self._sanitizer[0] += start - self._marked
        self._sanitizer[1] += 1
        last = self._last
        idle = 0
        for i, link in enumerate(self.links):
            total = link.serviced_total + link.dropped_total
            if total == last[i]:
                idle += 1
            else:
                last[i] = total
        self.idle_link_ticks += idle
        self.link_ticks += len(last)
        self.depths.append(len(self.target.queue))
        self._self[0] += _clock() - start
        self._self[1] += 1

    def take(self) -> Tuple[int, int, List[int]]:
        out = (self.idle_link_ticks, self.link_ticks, self.depths)
        self.idle_link_ticks = 0
        self.link_ticks = 0
        self.depths = []
        return out


# ----------------------------------------------------------------------
# micro-loops
# ----------------------------------------------------------------------
def micro_us(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    batches: int = 5,
    batch_seconds: float = 0.02,
) -> float:
    """Microseconds per ``fn(item)``: the fastest of ``batches`` batches,
    each long enough to take about ``batch_seconds``."""
    if not items:
        return 0.0
    rounds = 1
    while True:
        start = _clock()
        for _ in range(rounds):
            for item in items:
                fn(item)
        spent = _clock() - start
        if spent >= batch_seconds or rounds >= 1 << 16:
            break
        rounds *= 2
    best = spent
    for _ in range(batches - 1):
        start = _clock()
        for _ in range(rounds):
            for item in items:
                fn(item)
        best = min(best, _clock() - start)
    return best / (rounds * len(items)) * 1e6


def tree_micro_loops(live: TreeRun) -> Dict[str, float]:
    """Unit costs of the public functions admission is built from, on the
    workload's own ``(src, dst, path_id)`` triples."""
    scenario = live.scenario
    cfg = getattr(live.policy, "cfg", None) or FLocConfig()
    flows = scenario.legit_flows + scenario.attack_flows
    triples = [(f.src_host, f.dst_host, f.path_id) for f in flows]
    issuer = CapabilityIssuer(cfg.secret, n_max=cfg.n_max)
    capped = [(issuer.issue(*t),) + t for t in triples]
    keys = [issuer.account_key(*t) for t in triples]
    hops = [
        (f.route[h], f.route[h + 1])
        for f in flows
        for h in range(len(f.route) - 1)
    ]
    topology = scenario.topology
    bucket = PathTokenBucket(scenario.capacity, 12.0, len(flows))
    tracker = FlowDropTracker(horizon=40 * cfg.measure_interval)
    ticks = iter(range(1 << 62))
    pids = sorted({f.path_id for f in flows})
    tier = BoundedPathState(cfg.sketch_width, cfg.sketch_depth)
    out = {
        "core.capability.issue_us": micro_us(lambda t: issuer.issue(*t), triples),
        "core.capability.verify_us": micro_us(
            lambda c: issuer.verify(*c), capped
        ),
        "core.capability.account_key_us": micro_us(
            lambda t: issuer.account_key(*t), triples
        ),
        "core.tokenbucket.request_us": micro_us(
            lambda _: bucket.request(), triples
        ),
        "core.mtd.record_drop_us": micro_us(
            lambda k: tracker.record_drop(k, next(ticks)), keys, batches=2
        ),
        "net.topology.link_lookup_us": micro_us(
            lambda h: topology.link(*h), hops
        ),
        "sketch.indices_us": micro_us(
            lambda p: sketch_indices(p, cfg.sketch_depth, cfg.sketch_width),
            pids,
        ),
        "sketch.fold_path_us": micro_us(
            lambda p: tier.fold_path(p, 1.0, 12.0, 0.5), pids
        ),
        "sketch.seed_path_us": micro_us(tier.seed_path, pids),
    }
    now = next(ticks)
    window = 10 * cfg.measure_interval
    out["core.mtd.mtd_us"] = micro_us(
        lambda k: tracker.mtd(k, now, window), keys
    )
    return out


def shard_baseline(live: FluidRun, seed: int, out_dir: str) -> Dict[str, float]:
    """Cost of the file barrier a 2-shard run would pay per tick: two
    threads, two ``BarrierExchange`` objects, 200 rounds of the
    workload's per-AS load vector."""
    import numpy as np

    scenario = live.scenario
    start = _clock()
    owners = partition_scenario(scenario, 2, seed)
    partition_ms = (_clock() - start) * 1e3
    vector = np.bincount(
        scenario.flow_origin_as, minlength=scenario.topology.n_as
    ).astype(np.float64)
    directory = os.path.join(out_dir, f"barrier-{os.getpid()}")
    rounds = 200
    samples: List[List[float]] = [[], []]
    errors: List[Exception] = []

    def shard(index: int) -> None:
        try:
            exchange = BarrierExchange(
                directory, ShardSpec(index, 2, owners), timeout_seconds=30.0
            )
            for tick in range(rounds):
                begin = _clock()
                exchange.allreduce(tick, "load", {"own": vector}, {})
                samples[index].append(_clock() - begin)
        except Exception as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=shard, args=(i,)) for i in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("shard barrier baseline did not finish")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "inet.shard.partition_ms": partition_ms,
        "inet.shard.allreduce_ms_p50": statistics.median(samples[0]) * 1e3,
    }


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
#: Parent span name of each harness phase, per kind of live run.
_PARENT = {
    TreeRun: {
        "build": "net.scenario.build",
        "warmup": "net.engine.warmup",
        "window": "net.engine.run",
    },
    FluidRun: {
        "build": "inet.scenario.build",
        "warmup": "inet.sim.warmup",
        "window": "inet.sim.run",
    },
}


class LayerTrace:
    """Wrappers, spans and counters of one traced repetition.

    Pass :meth:`wrap_policy`, :meth:`instrument` and :meth:`on_chunk` to
    ``harness.run_repetition``; afterwards :meth:`metrics` turns the
    spans into the per-layer metrics and :meth:`write` saves them.
    """

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.spans: List[Dict[str, Any]] = []
        self.origin = _clock()
        self.policy: Optional[TimedPolicy] = None
        self.sampler: Optional[LinkSampler] = None
        self.sanitizer = None
        self.kind: type = TreeRun
        self.step_samples: List[float] = []
        # window-phase samples, gathered chunk by chunk
        self.admit_samples: List[float] = []
        self.depths: List[int] = []
        self.idle_link_ticks = 0
        self.link_ticks = 0
        self.admitted = 0
        self.on_tick_max = 0.0

    # -- installation ---------------------------------------------------
    def wrap_policy(self, policy: LinkPolicy) -> LinkPolicy:
        self.policy = TimedPolicy(policy, self.clock)
        return self.policy

    def instrument(self, live: Any) -> None:
        """Install the wrappers that need the built scenario."""
        self.kind = type(live)
        timed = self.clock.timed
        if isinstance(live, FluidRun):
            sim = live.sim
            inner = sim.step_run
            samples = self.step_samples
            cell = self.clock.cell("inet.sim.step")

            def step_run() -> bool:
                start = _clock()
                more = inner()
                spent = _clock() - start
                samples.append(spent)
                cell[0] += spent
                cell[1] += 1
                return more

            sim.step_run = step_run
            self.sanitizer = install_sanitizer(sim, "strict")
            return
        scenario = live.scenario
        for layer, sources in (
            ("tcp.source", scenario.legit_sources),
            ("traffic.attack", scenario.attack_sources),
        ):
            for source in sources:
                for hook in ("on_tick", "on_ack", "on_synack"):
                    setattr(source, hook, timed(layer, getattr(source, hook)))
        engine = live.engine
        self.sampler = LinkSampler(engine, live.target, self.clock)
        engine.add_tick_hook(self.sampler.mark)
        self.sanitizer = install_sanitizer(engine, "strict")
        engine.add_tick_hook(self.sampler)

    # -- spans ------------------------------------------------------------
    def _span(
        self, name: str, start: float, end: float, parent: Optional[int],
        calls: int,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "calls": calls,
            }
        )
        return span_id

    def on_chunk(self, phase: str, start: float, end: float) -> None:
        parent = self._span(_PARENT[self.kind][phase], start, end, None, 1)
        cursor = start
        for layer, (busy, calls) in sorted(self.clock.flush().items()):
            # aggregated children are laid end to end inside the parent
            self._span(layer, cursor, cursor + busy, parent, calls)
            cursor += busy
        in_window = phase == "window"
        policy = self.policy
        if policy is not None:
            if in_window:
                self.admit_samples.extend(policy.admit_samples)
                self.admitted += policy.admitted
                self.on_tick_max = max(self.on_tick_max, policy.on_tick_max)
            policy.admit_samples.clear()
            policy.admitted = 0
            policy.on_tick_max = 0.0
        if self.sampler is not None:
            idle, link_ticks, depths = self.sampler.take()
            if in_window:
                self.idle_link_ticks += idle
                self.link_ticks += link_ticks
                self.depths.extend(depths)
        if not in_window:
            self.step_samples.clear()

    def totals(self, parent_name: str) -> Tuple[float, Dict[str, Tuple[float, int]]]:
        """Duration of all ``parent_name`` spans and, per child layer,
        ``(busy seconds, calls)`` summed over them."""
        parents = {
            s["id"]: s["end"] - s["start"]
            for s in self.spans
            if s["name"] == parent_name and s["parent"] is None
        }
        children: Dict[str, Tuple[float, int]] = {}
        for s in self.spans:
            if s["parent"] in parents:
                busy, calls = children.get(s["name"], (0.0, 0))
                children[s["name"]] = (
                    busy + s["end"] - s["start"], calls + s["calls"]
                )
        return sum(parents.values()), children

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    # -- metrics ------------------------------------------------------------
    def metrics(
        self,
        names: Sequence[str],
        rep: Repetition,
        live: Any,
        untraced: Measurement,
        out_dir: str,
    ) -> Dict[str, float]:
        """Every per-layer metric of ``BENCHMARK.json`` (``names``); 0
        where the workload does not use the layer."""
        out = {name: 0.0 for name in names}
        parents = _PARENT[self.kind]
        build_s, _ = self.totals(parents["build"])
        warmup_s, _ = self.totals(parents["warmup"])
        run_s, layers = self.totals(parents["window"])
        floor_s = untraced.raw_floor("window")  # raw against raw
        out["bench.trace_overhead_ratio"] = run_s / floor_s
        if isinstance(live, FluidRun):
            self._fluid_metrics(
                out, rep, live, build_s, warmup_s, untraced.seed, out_dir
            )
        else:
            self._tree_metrics(
                out, rep, live, build_s, warmup_s, run_s, layers, floor_s
            )
        return out

    def _tree_metrics(
        self, out, rep, live, build_s, warmup_s, run_s, layers, floor_s
    ) -> None:
        def busy(layer: str) -> float:
            return layers.get(layer, (0.0, 0))[0]

        def calls(layer: str) -> float:
            return float(layers.get(layer, (0.0, 0))[1])

        counts = rep.outcome.counts
        events = max(1, rep.outcome.events)
        self_s = max(0.0, run_s - sum(b for b, _ in layers.values()))
        out["net.scenario.build_s"] = build_s
        out["net.engine.warmup_s"] = warmup_s
        out["net.engine.run_s"] = run_s
        out["net.engine.self_s"] = self_s
        out["net.engine.self_us_per_event"] = self_s / events * 1e6
        ticks = max(1, len(self.depths))
        arrivals = (
            counts["target_serviced"] + counts["target_dropped"]
            + counts["target_queue"]
        )
        out["net.engine.idle_link_fraction"] = (
            self.idle_link_ticks / max(1, self.link_ticks)
        )
        out["net.link.arrivals_per_tick_pkts"] = arrivals / ticks
        out["net.link.queue_depth_p50_pkts"] = percentile(self.depths, 50)
        out["net.link.queue_depth_p99_pkts"] = percentile(self.depths, 99)
        out["net.link.drop_ratio"] = counts["target_dropped"] / max(1.0, arrivals)
        out["tcp.source.busy_s"] = busy("tcp.source")
        out["tcp.source.calls"] = calls("tcp.source")
        out["traffic.attack.busy_s"] = busy("traffic.attack")
        out["traffic.attack.calls"] = calls("traffic.attack")
        out["traffic.churn.churns"] = counts["churns"]
        admit_calls = calls("core.policy.admit")
        out["core.policy.admit_s"] = busy("core.policy.admit")
        out["core.policy.admit_calls"] = admit_calls
        out["core.policy.admit_us_p50"] = percentile(self.admit_samples, 50) * 1e6
        out["core.policy.admit_us_p99"] = percentile(self.admit_samples, 99) * 1e6
        out["core.policy.on_drop_s"] = busy("core.policy.on_drop")
        out["core.policy.on_drop_calls"] = calls("core.policy.on_drop")
        out["core.policy.on_tick_s"] = busy("core.policy.on_tick")
        out["core.policy.on_tick_ms_max"] = self.on_tick_max * 1e3
        out["core.policy.admit_ratio"] = self.admitted / max(1.0, admit_calls)
        for cause in (
            "spoofed", "blocked", "preferential", "token", "random", "overflow"
        ):
            out[f"core.policy.drops.{cause}"] = counts.get(f"drops.{cause}", 0.0)
        out["core.paths.tracked_peak"] = counts["tracked_peak"]
        out["core.paths.evictions"] = counts["evictions"]
        out.update(tree_micro_loops(live))
        if admit_calls and hasattr(live.policy, "issuer"):
            mean_admit_us = busy("core.policy.admit") / admit_calls * 1e6
            out["core.capability.share_of_admit"] = (
                out["core.capability.verify_us"]
                + out["core.capability.account_key_us"]
            ) / mean_admit_us
        sketch = getattr(live.policy, "sketch", None)
        if sketch is not None:
            stats = sketch.stats()
            out["sketch.folds"] = stats["folds"]
            out["sketch.revivals"] = stats["revivals"]
            out["sketch.collision_ratio"] = stats["collisions"] / max(
                1.0, stats["folds"]
            )
            out["sketch.fill_ratio"] = stats["fill_ratio"]
            out["sketch.memory_mb"] = stats["memory_bytes"] / 2**20
            # every eviction folds one path and the allocation that
            # forced it tries to seed one
            out["sketch.est_share_of_run"] = (
                counts["evictions"]
                * (out["sketch.fold_path_us"] + out["sketch.seed_path_us"])
                * 1e-6 / floor_s
            )

    def _fluid_metrics(
        self, out, rep, live, build_s, warmup_s, seed, out_dir
    ) -> None:
        steps = self.step_samples
        out["inet.scenario.build_s"] = build_s - live.init_s
        out["inet.sim.init_s"] = live.init_s
        out["inet.sim.warmup_s"] = warmup_s
        out["inet.sim.step_ms_p50"] = percentile(steps, 50) * 1e3
        out["inet.sim.step_ms_p98"] = percentile(steps, 98) * 1e3
        out["inet.sim.step_ms_max"] = max(steps) * 1e3
        out["inet.sim.ns_per_flow_tick"] = sum(steps) / rep.outcome.events * 1e9
        out["inet.sim.finish_ms"] = live.finish_s * 1e3
        out["inet.sim.n_groups"] = rep.outcome.counts["n_groups"]
        out.update(shard_baseline(live, seed, out_dir))

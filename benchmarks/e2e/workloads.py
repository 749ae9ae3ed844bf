"""The four benchmark workloads.

Each workload is a closed-form batch run: build a scenario from the
seed, advance a fixed number of warm-up ticks, then advance a fixed
number of timed ticks.  There is no arrival schedule and no client —
the simulators generate their own traffic — so one repetition is the
same deterministic work every time it is run with the same seed.

Only public APIs of ``repro`` are used, and nothing in ``src/`` is
patched.  A workload's :meth:`Workload.build` returns a *live run*
(:class:`TreeRun` or :class:`FluidRun`) with the three operations the
harness needs: ``advance(ticks)``, ``begin_window()``, ``finish()``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

from reference import NUMPY, PYTHON, Reference

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.inet.scenarios import InternetScenario, build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.net.policy import DropTailPolicy, LinkPolicy
from repro.traffic.churn import PathChurnFloodSource
from repro.traffic.scenarios import TreeScenario, build_tree_scenario

#: Identity hook: the traced pass substitutes a timing wrapper here.
PolicyWrap = Callable[[LinkPolicy], LinkPolicy]


@dataclass(frozen=True)
class Size:
    """How much of a workload one repetition runs.

    ``scale`` is ``build_tree_scenario``'s ``scale_factor`` for the tree
    workloads and the fraction of the paper's Section VII flow and AS
    counts for the fluid workload.
    """

    warmup_ticks: int
    timed_ticks: int
    chunk_ticks: int
    scale: float
    #: repetitions in one run; fixed, so that every run's floor is taken
    #: over the same number of samples per chunk
    reps: int


@dataclass(frozen=True)
class Outcome:
    """What one repetition produced; everything here must repeat exactly."""

    events: int
    legit_share: float
    digest: str
    counts: Dict[str, float]


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# packet-level tree workloads (paper Section VI, Fig. 5)
# ----------------------------------------------------------------------
class TreeRun:
    """One repetition of a packet-engine workload."""

    def __init__(self, scenario: TreeScenario, policy: LinkPolicy) -> None:
        self.scenario = scenario
        self.engine = scenario.engine
        self.policy = policy
        self.target = scenario.topology.link(*scenario.target)
        self.monitor = None
        self._start: Dict[str, int] = {}

    def advance(self, ticks: int) -> None:
        self.engine.run(ticks)

    def _totals(self) -> Dict[str, int]:
        policy = self.policy
        totals = {
            "emitted": self.engine.packets_emitted,
            "delivered": self.engine.packets_delivered,
            "target_serviced": self.target.serviced_total,
            "target_dropped": self.target.dropped_total,
            "target_queue": len(self.target.queue),
            "evictions": 0,
        }
        for cause, count in getattr(policy, "drop_stats", {}).items():
            totals[f"drops.{cause}"] = count
        stats = getattr(policy, "eviction_stats", None)
        if stats is not None:
            totals["evictions"] = stats["memory-pressure"]
        return totals

    def begin_window(self) -> None:
        # a monitor attached now sees only the timed window
        self.monitor = self.scenario.add_target_monitor()
        self._start = self._totals()

    def finish(self) -> Outcome:
        monitor = self.monitor
        scenario = self.scenario
        delta = {
            key: value - self._start[key]
            for key, value in self._totals().items()
        }
        legit = sum(
            monitor.service_counts.get(flow.flow_id, 0)
            for flow in scenario.legit_flows
        )
        churns = sum(
            getattr(source, "churns", 0) for source in scenario.attack_sources
        )
        links = list(scenario.topology.links())
        digest = _digest(
            {
                "service": sorted(monitor.service_counts.items()),
                "drops": sorted(monitor.drop_counts.items()),
                "window": delta,
                "links_serviced": sum(link.serviced_total for link in links),
                "links_dropped": self.engine.total_link_drops(),
                "churns": churns,
            }
        )
        counts = {key: float(value) for key, value in delta.items()}
        counts["churns"] = float(churns)
        counts["tracked_peak"] = float(
            getattr(self.policy, "tracked_paths_peak", 0)
        )
        return Outcome(
            events=delta["emitted"],
            legit_share=legit / max(1, monitor.total_serviced),
            digest=digest,
            counts=counts,
        )


def _flood_tree(
    seed: int, size: Size, wrap: PolicyWrap, policy: LinkPolicy
) -> TreeRun:
    scenario = build_tree_scenario(
        scale_factor=size.scale, attack_kind="cbr", attack_rate_mbps=2.0,
        seed=seed,
    )
    scenario.attach_policy(wrap(policy))
    return TreeRun(scenario, policy)


def build_tree_flood_floc(seed: int, size: Size, wrap: PolicyWrap) -> TreeRun:
    return _flood_tree(seed, size, wrap, FLocPolicy(FLocConfig()))


def build_tree_flood_droptail(
    seed: int, size: Size, wrap: PolicyWrap
) -> TreeRun:
    return _flood_tree(seed, size, wrap, DropTailPolicy())


#: Hot-tier budget of the churn workload's sketch-backed router.
CHURN_HOT_PATHS = 64


def build_tree_churn_sketch(
    seed: int, size: Size, wrap: PolicyWrap
) -> TreeRun:
    """Legitimate TCP only from the builder; the attackers are churn bots
    added through the engine's own ``open_flow``/``add_source``."""
    scenario = build_tree_scenario(
        scale_factor=size.scale, attack_kind="none", seed=seed
    )
    engine = scenario.engine
    topology = scenario.topology
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    bots_per_leaf = max(1, round(60 * size.scale))
    start_rng = engine.spawn_rng("e2e-churn-start")
    start_spread = max(1, size.warmup_ticks // 2)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    bot = 0
    for pid in scenario.attack_path_ids:
        leaf = leaf_of_as[pid[0]]
        for i in range(bots_per_leaf):
            host = f"c_{pid[0]}_{i}"
            topology.add_duplex_link(host, leaf, capacity=None)
            flow = engine.open_flow(
                host, scenario.servers[0], pid, is_attack=True
            )
            # even bots earn a capability for every fresh identifier
            # (tracked state); odd bots keep a stale one, so each packet
            # allocates path state and is then dropped as spoofed
            rehandshake = bot % 2 == 0
            source = PathChurnFloodSource(
                flow,
                rate,
                churn_interval=20 if rehandshake else 1,
                id_space=10**6,
                rehandshake=rehandshake,
                start_tick=start_rng.randrange(start_spread),
            )
            engine.add_source(source)
            scenario.attack_flows.append(flow)
            scenario.attack_sources.append(source)
            bot += 1
    policy = FLocPolicy(
        FLocConfig(state_backend="sketch", sketch_hot_paths=CHURN_HOT_PATHS)
    )
    scenario.attach_policy(wrap(policy))
    return TreeRun(scenario, policy)


# ----------------------------------------------------------------------
# fluid Internet-scale workload (paper Section VII)
# ----------------------------------------------------------------------
class FluidRun:
    """One repetition of the fluid workload."""

    def __init__(
        self,
        scenario: InternetScenario,
        sim: FluidSimulator,
        size: Size,
        init_s: float,
    ) -> None:
        self.scenario = scenario
        self.sim = sim
        self.size = size
        #: seconds the ``FluidSimulator`` constructor took (the rest of
        #: the build is ``build_internet_scenario``)
        self.init_s = init_s
        #: seconds ``finish_run`` took, known once :meth:`finish` returns
        self.finish_s = 0.0
        sim.begin_run(
            ticks=size.warmup_ticks + size.timed_ticks,
            warmup=size.warmup_ticks,
        )

    def advance(self, ticks: int) -> None:
        for _ in range(ticks):
            self.sim.step_run()

    def begin_window(self) -> None:
        """The simulator's own ``warmup`` argument opens the window."""

    def finish(self) -> Outcome:
        start = time.perf_counter()
        result = self.sim.finish_run()
        self.finish_s = time.perf_counter() - start
        digest = _digest(
            {
                "shares": {k: repr(v) for k, v in result.shares.items()},
                "utilization": repr(result.utilization),
                "per_flow_mean": {
                    k: repr(v) for k, v in result.per_flow_mean.items()
                },
                "n_flows": result.n_flows,
                "n_groups": result.n_groups,
            }
        )
        return Outcome(
            events=self.scenario.n_flows * self.size.timed_ticks,
            legit_share=result.legit_total,
            digest=digest,
            counts={"n_groups": float(result.n_groups)},
        )


def build_inet_fluid_floc(seed: int, size: Size, wrap: PolicyWrap) -> FluidRun:
    """The paper's Section VII size at ``scale`` 1.0: 2000 ASes, 10 k
    legitimate sources in 200 ASes, 100 k bots, 16 k packets/tick."""
    scale = size.scale
    scenario = build_internet_scenario(
        n_as=max(50, round(2000 * scale)),
        n_legit_sources=max(100, round(10_000 * scale)),
        n_legit_ases=max(10, round(200 * scale)),
        n_bots=max(1000, round(100_000 * scale)),
        target_capacity=16_000 * scale,
        placement="localized",
        build_flow_links=False,
        seed=seed,
    )
    start = time.perf_counter()
    sim = FluidSimulator(scenario, strategy="floc", seed=seed)
    init_s = time.perf_counter() - start
    return FluidRun(scenario, sim, size, init_s)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    quick: Size
    build: Callable[[int, Size, PolicyWrap], Any]
    #: the kernel that measures host speed between this workload's chunks
    reference: Reference

    def size(self, quick: bool) -> Size:
        return self.quick if quick else self.full


_QUICK_TREE = Size(
    warmup_ticks=60, timed_ticks=60, chunk_ticks=10, scale=0.03, reps=2
)

#: Why each workload is here is recorded in ``BENCHMARK.json`` and the
#: README.  Chunks are kept to 2-7 ms of work (see ``harness.py``), and
#: ``reps`` is sized so that the timed windows of a run add up to about
#: ``run_seconds`` of ``BENCHMARK.json`` and the whole run to 20-35 s.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tree_flood_floc",
            # FLoc convicts the attack paths by tick 700-800, sooner or
            # later with the seed; the window opens after that
            Size(warmup_ticks=800, timed_ticks=800, chunk_ticks=1, scale=0.1,
                 reps=7),
            _QUICK_TREE,
            build_tree_flood_floc,
            PYTHON,
        ),
        Workload(
            "tree_flood_droptail",
            Size(warmup_ticks=500, timed_ticks=10_000, chunk_ticks=5,
                 scale=0.1, reps=4),
            _QUICK_TREE,
            build_tree_flood_droptail,
            PYTHON,
        ),
        Workload(
            "tree_churn_sketch",
            Size(warmup_ticks=500, timed_ticks=1000, chunk_ticks=1, scale=0.1,
                 reps=5),
            _QUICK_TREE,
            build_tree_churn_sketch,
            PYTHON,
        ),
        Workload(
            "inet_fluid_floc",
            Size(warmup_ticks=100, timed_ticks=400, chunk_ticks=1, scale=1.0,
                 reps=5),
            Size(warmup_ticks=20, timed_ticks=40, chunk_ticks=5, scale=0.02,
                 reps=2),
            build_inet_fluid_floc,
            NUMPY,
        ),
    )
}

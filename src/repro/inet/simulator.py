"""Vectorised fluid simulator for Internet-scale experiments.

This is the Section VII-B simulator re-expressed at flow-aggregate
granularity: time advances in ticks, every link passes
``min(offered, capacity)`` with a uniform (random-drop) loss fraction, and
TCP behaviour follows the standard AIMD fluid model
(``dw/dt = 1/RTT - (w/2) * p * r``), which is the continuous limit of the
paper's per-packet window dynamics.  With 10^5 flows this runs in a
fraction of a second where per-packet simulation would take hours, and —
as the paper itself argues for its own coarse simulator — bandwidth
*shares* at the target link are insensitive to the abstraction level.

State is kept per *class*, not per flow.  Flows that share an origin AS
and a kind (legitimate or bot) have the same RTT, window, send rate,
upstream survival, flag and admitted volume at every tick, so the
constructor forms one class per (origin AS, kind) pair and stores one
state row per class with its member ``count``; every per-AS reduction
weighs a row by its count.  ``flow_class`` maps each flow to its class.
A hook that makes members of a class differ (per-flow bot rates, a
corrupted counter) first calls :meth:`FluidSimulator.split`, which turns
the flows it names into singleton classes.  Split into singletons
throughout, the simulator is the per-flow model exactly.

A tick's per-AS quantities live on the *slot* axis: the ASes that
originate flows, in ascending order (a few hundred of the scenario's
thousands), with ``_class_slot`` mapping each class to its origin's
slot.  A bincount that leaves out the ASes without flows leaves out
only zero terms, so every slot entry is bit-equal to its per-AS one.
Totals over ASes are still summed in the per-AS layout: ``np.sum`` is
pairwise, and its rounding depends on where the zeros sit.

The tree structure makes upstream propagation exact and cheap: a link's
offered load is its own AS's source rate plus its children's admitted
output, computed root-ward in one pass per tick.

Three target-link strategies reproduce the paper's comparisons:

* ``nd`` — no defense: uniform random drop at the target;
* ``ff`` — per-flow fairness with oracle priority for legitimate flows
  (Section VII-C's description, exactly);
* ``floc`` — per-path-identifier allocation with MTD-equivalent attack
  flagging, Eq.-(IV.5)-equivalent preferential caps, conformance tracking
  and the *same* aggregation code (Algorithm 1 and Eq. IV.8) used by the
  packet-level router.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.aggregation import GroupKey, build_plan
from ..core.conformance import ConformanceTracker
from ..errors import ConfigError, SimulationError
from ..telemetry import NullTelemetry, current
from ..trace import current_tracer
from .scenarios import InternetScenario

STRATEGIES = ("nd", "ff", "floc")

#: per-class run state that ``split`` carries over to the new classes
_CLASS_STATE = ("w", "_rate_ewma", "_flagged", "_acc", "_last_admitted")

CATEGORY_NAMES = ("legit_in_legit", "legit_in_attack", "attack")


@dataclass
class FluidResult:
    """Bandwidth shares at the target link over the measurement window."""

    strategy: str
    s_max: Optional[int]
    shares: Dict[str, float]  # category -> fraction of target capacity
    utilization: float
    per_flow_mean: Dict[str, float]  # category -> mean rate, pkts/tick
    n_flows: Dict[str, int]
    n_groups: int = 0
    series: List[Tuple[int, float, float, float]] = field(default_factory=list)

    @property
    def legit_total(self) -> float:
        return self.shares["legit_in_legit"] + self.shares["legit_in_attack"]


def _partition(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of the per-flow ``key`` in order of
    first occurrence: returns each flow's class and each class's first
    flow.  Works on runs of equal keys, so a key laid out in blocks (a
    scenario lists its flows by kind, then by AS) costs one pass over the
    flows plus a sort of the run heads."""
    n = key.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    values, at, inverse = np.unique(
        key[starts], return_index=True, return_inverse=True
    )
    order = np.argsort(at, kind="stable")
    rank = np.empty(values.shape[0], dtype=np.int64)
    rank[order] = np.arange(values.shape[0])
    lengths = np.diff(np.append(starts, n))
    flow_class = np.repeat(rank[inverse.ravel()], lengths)
    return flow_class, starts[at[order]]


class FluidSimulator:
    """Runs one scenario under one target-link strategy."""

    def __init__(
        self,
        scenario: InternetScenario,
        strategy: str = "floc",
        s_max: Optional[int] = None,
        attack_flag_factor: float = 1.5,
        aggregation_interval: int = 50,
        seed: int = 11,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; choose {STRATEGIES}")
        # every share is divided by it at finish_run: 0 would raise
        # ZeroDivisionError there, NaN would return NaN shares
        capacity = scenario.target_capacity
        if not (math.isfinite(capacity) and capacity > 0):
            raise ConfigError(
                f"target_capacity must be finite and > 0, got {capacity!r}"
            )
        self.scn = scenario
        self.strategy = strategy
        self.s_max = s_max
        self.attack_flag_factor = attack_flag_factor
        self.aggregation_interval = aggregation_interval
        self.seed = seed
        # fault support: per-tick hooks (same interface as Engine, so a
        # repro.faults.FaultSchedule installs on either simulator) and the
        # post-restart warm-up window of the target defense
        self._tick_hooks: List[Callable[["FluidSimulator", int], None]] = []
        self._hook_labels: List[str] = []
        self._warmup_until: Optional[int] = None
        # observation only: the current telemetry facade (NULL_TELEMETRY
        # unless the simulator is built inside a repro.telemetry.use block)
        self.telemetry: NullTelemetry = current()

        scn = scenario
        self.origin = scn.flow_origin_as
        self.is_attack = scn.flow_is_attack
        self.n_flows = int(self.origin.shape[0])
        self._counts_by_as = np.bincount(
            self.origin, minlength=scn.topology.n_as
        )
        # one class per (origin AS, kind), in order of its first flow
        self.flow_class, self._class_first = _partition(
            self.origin * 2 + self.is_attack
        )
        self.count = np.bincount(self.flow_class).astype(np.float64)
        # per-AS topology helpers
        depth = np.asarray(scn.topology.depth, dtype=np.float64)
        self.parent = np.asarray(scn.topology.parent, dtype=np.int64)
        order = np.argsort(-depth)  # deepest first: children before parents
        self.as_order = order
        self._group_of_as: Optional[np.ndarray] = None
        self._group_shares: Optional[np.ndarray] = None
        self._build_derived()
        self._build_scratch()
        self._n_flows_by_cat = {
            name: int(self.count[self._class_cat == idx].sum())
            for idx, name in enumerate(CATEGORY_NAMES)
        }
        self.pid_of_as = {
            asn: scn.topology.path_of(asn)
            for asn in set(self.class_origin.tolist())
        }
        # TCP windows, per class; only the legitimate entries ever move
        self.w = np.minimum(
            2.0, scn.legit_rate * self._rtt_as[self.class_origin]
        )
        self.conformance = ConformanceTracker(beta=0.2)
        self._plan = None
        self._flagged = np.zeros(self.n_classes, dtype=bool)
        # smoothed send rate: the fluid analogue of the MTD measurement
        # window (Eq. IV.4 averages drops over k periods; drops are
        # proportional to send rate, so a smoothed rate carries the same
        # signal)
        self._rate_ewma = np.zeros(self.n_classes, dtype=np.float64)
        self.n_groups = 0

    @property
    def n_classes(self) -> int:
        return int(self.count.shape[0])

    def _build_derived(self) -> None:
        """(Re)build the static lookup tables of the step hot path.

        Everything here is a pure function of the scenario, the class
        partition and the aggregation plan (``_group_of_as``/
        ``_group_shares``), so ``split`` rebuilds it after changing the
        partition.
        """
        scn = self.scn
        depth = np.asarray(scn.topology.depth, dtype=np.int64)
        # RTT: two ticks per AS hop plus destination handling
        self._rtt_as = 2.0 * (depth + 2.0)
        # the slot axis: the ASes with flows, ascending
        slot_as = self._slot_as = np.flatnonzero(self._counts_by_as)
        # the rate below which a starved-but-conformant TCP flow cannot
        # send (see the flag bar in ``_plan_tables``)
        self._tcp_floor_slot = 2.5 / self._rtt_as[slot_as]
        self._counts_slot = self._counts_by_as[slot_as].astype(np.float64)
        # a class's origin, slot, kind and category are its first member's
        first = self._class_first
        self.class_origin = self.origin[first]
        self._class_slot = np.searchsorted(slot_as, self.class_origin)
        self._class_attack = self.is_attack[first]
        self._class_cat = scn.categories()[first]
        # the AIMD model runs on the legitimate classes only
        self._legit_idx = np.flatnonzero(~self._class_attack)
        self._rtt_legit = self._rtt_as[self.class_origin[self._legit_idx]]
        self._inv_rtt_legit = 1.0 / self._rtt_legit
        self._w_max_legit = scn.legit_rate * self._rtt_legit
        # the survival pass walks the tree one depth level at a time,
        # deepest first, in ``as_order`` order within a level (the order
        # fixes the float summation order into each parent)
        order = self.as_order[self.as_order != 0]
        cuts = np.flatnonzero(np.diff(depth[order])) + 1
        self._levels = [
            (nodes, self.parent[nodes]) for nodes in np.split(order, cuts)
        ]
        # (uplink, slot) for every AS with flows and every uplink on its
        # way to the target, the uplink numbered by its place in
        # ``_uplinks`` (the uplinks that carry flows, ascending): one
        # bincount over these pairs is every such uplink's offered load
        # when none clogs (see ``_clogs``; int32 keeps the table small)
        link, slot = slot_as, np.arange(slot_as.shape[0])
        pair_link, pair_slot = [link[:0]], [slot[:0]]
        while True:
            keep = link != 0
            link, slot = link[keep], slot[keep]
            if not link.size:
                break
            pair_link.append(link)
            pair_slot.append(slot)
            link = self.parent[link]
        uplinks, pair_uplink = np.unique(
            np.concatenate(pair_link), return_inverse=True
        )
        self._uplinks = uplinks.astype(np.int32)
        self._pair_uplink = pair_uplink.astype(np.int32)
        self._pair_slot = np.concatenate(pair_slot).astype(np.int32)
        self._plan_tables()

    def _build_scratch(self) -> None:
        """Make the per-tick buffers a tick fills and reads back, kept
        across ticks to spare the allocation.  Both are sized by the
        scenario's ASes and the slots, which ``split`` leaves as they
        are.

        ``_totals_layout`` is ``_as_totals``'s per-AS layout: only its
        slot columns are ever written, so everywhere else it stays zero.
        ``_no_clog`` is ``_slot_survival``'s answer when no uplink
        clogs; every tick shares it, so it is read-only.
        """
        self._totals_layout = np.zeros((3, self.scn.topology.n_as))
        no_clog = self._no_clog = np.ones(self._slot_as.shape[0])
        no_clog.flags.writeable = False

    def _plan_tables(self) -> None:
        """Per-plan quantities of ``_admit_floc``: each group's capacity
        allocation, and each slot's group, fair share per flow and flag
        bar.  They depend on the plan and on ``target_capacity``,
        ``_counts_by_as`` and ``attack_flag_factor``, which are fixed for
        a simulator's life, so they change only when the plan does.
        """
        gidx_as = self._group_of_as
        if gidx_as is None:
            self._alloc = self._group_of_slot = None
            self._fair_slot = self._flag_bar_slot = None
            return
        shares = self._group_shares
        self._alloc = self.scn.target_capacity * shares / shares.sum()
        gidx_s = self._group_of_slot = gidx_as[self._slot_as]
        # group size from the per-AS counts (group membership is per
        # origin AS, so AS-level bincounts are exact)
        group_flows = np.bincount(
            gidx_s, weights=self._counts_slot, minlength=shares.shape[0]
        )
        fair = self._alloc / np.maximum(group_flows, 1.0)
        self._fair_slot = fair[gidx_s]
        # MTD-equivalent flagging: a flow whose *smoothed* send rate stays
        # above the flag factor times its fair share, inside an
        # over-subscribed group, is an attack flow (its drop rate — and so
        # its MTD — tracks that sustained rate; adaptive TCP flows decay
        # below the bar within an RTT or two).
        # the AIMD fluid model bottoms out at w = sqrt(2) (timeouts are not
        # modelled), so a conformant-but-starved TCP flow cannot send
        # slower than ~sqrt(2)/RTT; rates at or below that floor are what
        # the MTD reference classifies as responsive, so they never flag.
        self._flag_bar_slot = np.maximum(
            self.attack_flag_factor * self._fair_slot, self._tcp_floor_slot
        )

    def split(self, flows) -> None:
        """Make each flow in ``flows`` a class of its own.

        A new singleton inherits its old class's state row; the rest of
        the old class keeps it.  Classes stay ordered by their first
        member, so a simulator split into singletons throughout sums in
        flow order with every count 1.0 — the per-flow model, bit for
        bit.  Flows that already are singletons are skipped, so a hook
        may call this every time it runs.
        """
        flows = np.unique(np.asarray(flows, dtype=np.int64))
        old = self.flow_class
        flows = flows[self.count[old[flows]] > 1.0]
        if flows.size == 0:
            return
        key = old.copy()
        key[flows] = self.n_classes + flows
        self.flow_class, self._class_first = _partition(key)
        source = old[self._class_first]
        for name in _CLASS_STATE:
            state = getattr(self, name, None)
            if state is not None:
                setattr(self, name, state[source])
        self.count = np.bincount(self.flow_class).astype(np.float64)
        self._build_derived()

    # ------------------------------------------------------------------
    # fault support (used by repro.faults injectors)
    # ------------------------------------------------------------------
    def spawn_rng(self, name: str) -> random.Random:
        """Derive a deterministic, independent RNG from the master seed
        (mirrors :meth:`repro.net.engine.Engine.spawn_rng`)."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def add_tick_hook(
        self, hook: Callable[["FluidSimulator", int], None]
    ) -> None:
        """Run ``hook(sim, tick)`` at the start of every tick."""
        self._tick_hooks.append(hook)
        label = (
            getattr(hook, "telemetry_label", None)
            or getattr(hook, "__name__", None)
            or type(hook).__name__
        )
        self._hook_labels.append(str(label))

    def restart_defense(self, now: int, warmup_ticks: int = 50) -> None:
        """Simulate a restart of the target router's defense.

        Conformance, aggregation plan, flags, and the smoothed rates (the
        MTD analogue) are wiped; until ``now + warmup_ticks`` the target
        admits neutrally (uniform random drop, like ``nd``), after which
        FLoc resumes from cold estimates.  No-op effect for the stateless
        ``nd``/``ff`` strategies beyond clearing the FLoc-only arrays.

        Unlike the packet router, fluid per-AS state is bounded by the
        scenario's AS count, so restart is the only eviction cause here;
        it reports through the same telemetry channel as the packet
        policy's ``path_evict`` for cross-simulator comparison.
        """
        lost = len(self.conformance)
        tel = self.telemetry
        if tel.enabled and lost:
            tel.registry.labeled("path_evictions_by_cause_count").inc(
                "restart", lost
            )
            if tel.trace_enabled:
                tel.emit_event(
                    now, "path_evict", "policy",
                    cause="restart", count=lost, backend="fluid",
                )
        self.conformance = ConformanceTracker(beta=0.2)
        self._plan = None
        self._group_of_as = None
        self._group_shares = None
        self._plan_tables()
        self._flagged[:] = False
        self._rate_ewma[:] = 0.0
        self.n_groups = 0
        self._warmup_until = now + warmup_ticks

    # ------------------------------------------------------------------
    # per-tick pieces
    # ------------------------------------------------------------------
    def _send_rates(self) -> np.ndarray:
        """Per-class send rate of one member: ``scn.attack_rate`` for bots,
        window over RTT for legitimate flows.

        ``scn.attack_rate`` is read on every call (``FluidRateRandomizer``
        replaces it mid-run).  It is a scalar or a per-flow array; an
        array is read at each class's first member, which is only right
        once every bot class is a singleton, so it is refused otherwise.
        """
        attack_rate = self.scn.attack_rate
        if not isinstance(attack_rate, float) and np.ndim(attack_rate):
            if np.any(self.count[self._class_attack] > 1.0):
                raise SimulationError(
                    "scn.attack_rate is a per-flow array but a bot class "
                    "still holds several flows; split the bots first"
                )
            rates = np.asarray(attack_rate, dtype=np.float64)[self._class_first]
        else:
            rates = np.empty(self.n_classes, dtype=np.float64)
            rates.fill(attack_rate)
        legit = self._legit_idx
        rates[legit] = self.w[legit] / self._rtt_legit
        return rates

    def _loads_by_as(self, rates: np.ndarray) -> np.ndarray:
        """Per-origin-AS source load of the per-member class ``rates``."""
        return np.bincount(
            self.class_origin,
            weights=self.count * rates,
            minlength=self.scn.topology.n_as,
        )

    def _loads_by_slot(self, rates: np.ndarray) -> np.ndarray:
        """``_loads_by_as`` on the slot axis."""
        return np.bincount(
            self._class_slot,
            weights=self.count * rates,
            minlength=self._slot_as.shape[0],
        )

    def _as_totals(self, *slot_vectors: np.ndarray) -> List[float]:
        """The sum over ASes of each slot vector, summed in the per-AS
        layout (zeros at the ASes without flows), so that it is bit-equal
        to ``np.sum`` over the per-AS vector.  The layout is kept across
        calls (see ``_build_scratch``); each row is reduced on its own, so
        the rows a call leaves unused change nothing."""
        layout = self._totals_layout[: len(slot_vectors)]
        for row, vector in zip(layout, slot_vectors):
            row[self._slot_as] = vector
        return layout.sum(axis=1).tolist()

    def _clogs(self, own_s: np.ndarray) -> bool:
        """Whether an uplink may clog under the per-slot source loads
        ``own_s``: some uplink's subtree load comes within a ``1e-9``
        relative margin of its capacity (see ``_survival_from_loads``).
        ``scn.link_capacity`` is read on every call."""
        subtree = np.bincount(
            self._pair_uplink,
            weights=np.take(own_s, self._pair_slot),
            minlength=self._uplinks.shape[0],
        )
        caps = np.take(self.scn.link_capacity, self._uplinks)
        return bool(np.count_nonzero(subtree > caps * (1.0 - 1e-9)))

    def _slot_survival(self, own_s: np.ndarray) -> np.ndarray:
        """``_survival_from_loads`` on the slot axis: all ones (the shared,
        read-only ``_no_clog``) unless an uplink may clog, and then the
        walk over the per-AS layout."""
        if not self._clogs(own_s):
            return self._no_clog
        own = np.zeros(self.scn.topology.n_as)
        own[self._slot_as] = own_s
        return self._survival_from_loads(own)[self._slot_as]

    def _survival_from_loads(self, own: np.ndarray) -> np.ndarray:
        """Per-AS survival fraction from origin to (not including) the
        target link, given the per-AS source-load vector.

        Root-ward, one depth level per step: a link passes
        ``min(offered, capacity)`` into its parent (a capacity of 0 means
        "no limit").  ``np.add.at`` adds a level's admitted loads into
        the parents in ``as_order`` order, which is the summation order
        of the per-AS loop this replaced, so every entry is bit-equal to
        it.  ``scn.link_capacity`` is read on every call:
        ``FluidLinkDegrade`` rewrites it mid-run.

        Most steps clog no uplink, and then every survival is 1.0.  An
        unclogged uplink's offered load is the sum of ``own`` over its
        subtree, which one bincount over the (uplink, slot) pairs gives
        for every uplink that carries flows at once (``_clogs``); only an
        AS with flows appears in a pair, so ``own`` must be zero elsewhere
        (as a load vector of this simulator's flows is).  Both sums add
        the same non-negative terms in different orders, so they differ
        by far less than the ``1e-9`` relative margin: if no subtree sum
        comes within it of its uplink's capacity, the walk below would
        clog nothing, and its all-ones answer is returned without
        walking.  An uplink that carries no flows clogs nothing either.
        A zero capacity under load fails the test and takes the walk,
        which reads it as "no limit".
        """
        caps = self.scn.link_capacity
        own = np.asarray(own, dtype=np.float64)
        if not self._clogs(own[self._slot_as]):
            return np.ones_like(own)
        inflow = own.copy()
        passfrac: Optional[np.ndarray] = None
        for nodes, parents in self._levels:
            offered = inflow[nodes]
            cap = caps[nodes]
            clogged = (offered > cap) & (cap > 0)
            if clogged.any():
                if passfrac is None:
                    passfrac = np.ones_like(inflow)
                passfrac[nodes] = np.divide(
                    cap, offered, out=np.ones_like(offered), where=clogged
                )
                offered = np.where(clogged, cap, offered)
            np.add.at(inflow, parents, offered)
        # survival per AS = product of passfrac along the chain to root
        surv = np.ones_like(inflow)
        if passfrac is not None:
            for nodes, parents in reversed(self._levels):
                surv[nodes] = surv[parents] * passfrac[nodes]
        return surv

    def _upstream_survival(self, rates: np.ndarray) -> np.ndarray:
        """Reduce per-class rates per AS and propagate (``step_run``
        keeps the load vector, so it calls the two halves itself)."""
        return self._survival_from_loads(self._loads_by_as(rates))

    # -- target-link strategies ------------------------------------------
    def _admit_nd(
        self, arrivals: np.ndarray, arr_s: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Uniform random-drop admission.

        The arrival total is reduced from the per-slot vector, which
        ``step_run`` already holds; direct callers may omit it.
        """
        if arr_s is None:
            arr_s = self._loads_by_slot(arrivals)
        (total,) = self._as_totals(arr_s)
        cap = self.scn.target_capacity
        if total <= cap:
            self._admitted_total = total
            return arrivals
        factor = cap / total
        self._admitted_total = total * factor
        return arrivals * factor

    def _admit_ff(self, arrivals: np.ndarray) -> np.ndarray:
        """Section VII-C, verbatim: one high-priority pool holds all
        legitimate packets plus attack packets up to their fair bandwidth;
        normal-priority (excess attack) packets are serviced only from
        whatever capacity the pool leaves idle.  Pool totals are reduced
        per origin AS first, then over ASes.
        """
        cap = self.scn.target_capacity
        fair = cap / max(1, self.n_flows)
        attack = self._class_attack
        hp = np.where(attack, np.minimum(arrivals, fair), arrivals)
        lp = np.where(attack, arrivals - hp, 0.0)
        hp_total = float(np.sum(self._loads_by_as(hp)))
        if hp_total >= cap:
            self._admitted_total = hp_total * (cap / hp_total)
            return hp * (cap / hp_total)
        admitted = hp.copy()
        remaining = cap - hp_total
        lp_total = float(np.sum(self._loads_by_as(lp)))
        granted = 0.0
        if lp_total > 0:
            factor = min(1.0, remaining / lp_total)
            admitted += lp * factor
            granted = lp_total * factor
        self._admitted_total = hp_total + granted
        return admitted

    def _rebuild_groups(self) -> None:
        """Run conformance partition + aggregation, rebuild group arrays.

        Groups are numbered in order of their first AS, ascending; the
        ASes with flows are the slots, which are ascending too.
        """
        pid_of_as = self.pid_of_as
        pids = [pid_of_as[asn] for asn in self._slot_as.tolist()]
        legit, attack = self.conformance.partition(pids, threshold=0.5)
        plan = self._plan = build_plan(
            legit,
            attack,
            self.conformance.values(),
            dict(zip(pids, self._counts_slot.tolist())),
            self.s_max,
        )
        group_of, plan_shares = plan.group_of, plan.shares
        group_keys: Dict[GroupKey, int] = {}
        group_of_slot: List[int] = []
        shares: List[float] = []
        for pid in pids:
            key = group_of.get(pid, pid)
            gidx = group_keys.get(key)
            if gidx is None:
                gidx = group_keys[key] = len(shares)
                shares.append(plan_shares.get(key, 1.0))
            group_of_slot.append(gidx)
        group_of_as = np.zeros(self.scn.topology.n_as, dtype=np.int64)
        group_of_as[self._slot_as] = group_of_slot
        self._group_of_as = group_of_as
        self._group_shares = np.asarray(shares, dtype=np.float64)
        self.n_groups = len(shares)
        self._plan_tables()

    def _class_sums(
        self,
        slot_u: np.ndarray,
        count_u: np.ndarray,
        arrivals_u: np.ndarray,
        slot_f: np.ndarray,
        count_f: np.ndarray,
        arrivals_f: np.ndarray,
        capped_f: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Per-slot sums of the two flag sets' arrivals and of the
        flagged set's capped arrivals, each class weighted by its count.

        ``np.bincount`` over an empty set returns *int64* zeros, so the
        dtype is pinned: every sum is float64 of shape ``(n_slots,)`` for
        every input (a no-op for a non-empty set).
        """
        n_slots = self._slot_as.shape[0]
        sets = (
            (slot_u, count_u * arrivals_u),
            (slot_f, count_f * arrivals_f),
            (slot_f, count_f * capped_f),
        )
        return tuple(
            np.bincount(slot, weights=weights, minlength=n_slots).astype(
                np.float64, copy=False
            )
            for slot, weights in sets
        )

    def _admit_floc(
        self,
        arrivals: np.ndarray,
        tick: int,
        arr_s: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arr_s is None:
            arr_s = self._loads_by_slot(arrivals)
        if self._warmup_until is not None:
            if tick >= self._warmup_until:
                self._warmup_until = None
            else:
                # post-restart warm-up: no per-path state to allocate by,
                # so degrade to neutral admission while rates re-smooth
                admitted = self._admit_nd(arrivals, arr_s)
                tel = self.telemetry
                if tel.enabled:
                    (total,) = self._as_totals(arr_s)
                    tel.record_fluid_drop_volumes(
                        tick, neutral=total - self._admitted_total
                    )
                return admitted
        cap = self.scn.target_capacity
        tel = self.telemetry
        if self._group_of_as is None or (
            tick > 0 and tick % self.aggregation_interval == 0
        ):
            previous_groups = self.n_groups
            self._rebuild_groups()
            if tel.enabled:
                tel.registry.gauge("fluid_groups_count").set(float(self.n_groups))
                if tel.trace_enabled and self.n_groups != previous_groups:
                    tel.emit_event(
                        tick, "fluid_regroup", "aggregation",
                        n_groups=self.n_groups,
                        previous_count=previous_groups,
                    )
        gidx_s = self._group_of_slot
        n_groups = self.n_groups
        alloc = self._alloc
        fair_s = self._fair_slot
        # group demand from the per-slot vector (group membership is per
        # origin AS, so an AS-level bincount is exact)
        group_arrival = np.bincount(gidx_s, weights=arr_s, minlength=n_groups)
        # Everything below that depends on a class only through its origin
        # AS is computed on the slot vector and gathered once per class.
        # The plan's flag bar (see ``_plan_tables``) holds where the group
        # is over-subscribed; elsewhere no rate exceeds an infinite bar,
        # which folds that condition into the one per-class compare.
        # Over-subscribed means above the allocation by more than a
        # ``1e-9`` relative margin.  A group that is exactly the subtree
        # of a saturated uplink whose capacity equals its allocation
        # arrives at the allocation itself; without the margin, rounding
        # alone (a class's count times its rate against its members'
        # running sum) would decide whether its flows flag.
        bar_s = np.where(
            (group_arrival > alloc * (1.0 + 1e-9))[gidx_s],
            self._flag_bar_slot, np.inf,
        )
        slot = self._class_slot
        count = self.count
        previously_flagged = self._flagged
        flagged = self._rate_ewma > bar_s[slot]
        self._flagged = flagged
        unflagged = ~flagged

        # From here on the two flag sets are worked on as compressed
        # arrays and written into the per-class result once.  Each per-slot
        # bincount runs over its own set only: the classes it leaves out
        # would add 0.0, which changes no partial sum, so every entry is
        # bit-equal to the full-length masked reduction.
        slot_u = slot[unflagged]
        count_u = count[unflagged]
        arrivals_u = arrivals[unflagged]
        slot_f = slot[flagged]
        count_f = count[flagged]
        arrivals_f = arrivals[flagged]
        # Eq.-(IV.5) preferential cap: flagged flows get at most fair share
        admitted_f = fair_s[slot_f]
        np.minimum(arrivals_f, admitted_f, out=admitted_f)

        arr_unflagged, arr_flagged, capped_flagged = self._class_sums(
            slot_u, count_u, arrivals_u, slot_f, count_f, arrivals_f,
            admitted_f,
        )
        if tel.enabled:
            # flows, not classes: every count is a whole number, so the
            # float sums are exact
            n_flagged = int(count_f.sum())
            n_still = int(count[flagged & previously_flagged].sum())
            newly = n_flagged - n_still
            cleared = int(count[previously_flagged].sum()) - n_still
            if newly or cleared:
                tel.registry.counter("fluid_flag_transitions_count").inc(
                    float(newly + cleared)
                )
                if tel.trace_enabled:
                    tel.emit_event(
                        tick, "fluid_flag", "mtd",
                        newly_flagged=newly, cleared=cleared,
                        flagged_total=n_flagged,
                    )

        capped_s = arr_unflagged + capped_flagged
        group_demand = np.bincount(gidx_s, weights=capped_s, minlength=n_groups)
        scale = np.minimum(1.0, alloc / np.maximum(group_demand, 1e-12))
        scale_s = scale[gidx_s]
        # admitted = capped * scale
        admitted_u = scale_s[slot_u]
        admitted_u *= arrivals_u
        admitted_f *= scale_s[slot_f]

        # work conservation (congested-mode random drop admits without
        # tokens): leftover capacity goes to *unflagged* flows' unmet
        # demand first — flagged flows are still preferentially dropped —
        # and only then to flagged flows.  The pool totals decompose per
        # AS (unmet = arrivals - capped*scale), so they reduce from the
        # per-slot set sums.
        admitted_total, pool_unflagged, pool_flagged = self._as_totals(
            capped_s * scale_s,
            arr_unflagged - arr_unflagged * scale_s,
            arr_flagged - capped_flagged * scale_s,
        )
        grant_unflagged = 0.0
        grant_flagged = 0.0
        leftover = cap - admitted_total
        if leftover > 1e-9:
            if pool_unflagged > 1e-9:
                grant_unflagged = min(1.0, leftover / pool_unflagged)
                leftover -= pool_unflagged * grant_unflagged
            if leftover > 1e-9 and pool_flagged > 1e-9:
                grant_flagged = min(1.0, leftover / pool_flagged)
            # admitted += (arrivals - admitted) * grant, per set; the
            # compressed arrival copies double as the unmet-demand buffers
            arrivals_u -= admitted_u
            arrivals_u *= grant_unflagged
            admitted_u += arrivals_u
            arrivals_f -= admitted_f
            arrivals_f *= grant_flagged
            admitted_f += arrivals_f
        admitted = np.empty(self.n_classes, dtype=np.float64)
        admitted[unflagged] = admitted_u
        admitted[flagged] = admitted_f
        self._admitted_total = (
            admitted_total
            + pool_unflagged * grant_unflagged
            + pool_flagged * grant_flagged
        )
        if tel.enabled:
            # drop provenance, fluid analogue: a flagged flow's unmet
            # demand is the Eq.-(IV.5) preferential cap; an unflagged
            # flow's is the group allocation limit (the token-bucket
            # stage of the packet engine)
            tel.record_fluid_drop_volumes(
                tick,
                preferential=pool_flagged * (1.0 - grant_flagged),
                token=pool_unflagged * (1.0 - grant_unflagged),
            )
        return admitted

    # ------------------------------------------------------------------
    # stepwise run interface: ``run`` is begin_run, step_run until it
    # returns False, finish_run; every piece of run state lives on self,
    # so a caller may drive or time the steps one by one
    # ------------------------------------------------------------------
    def begin_run(
        self,
        ticks: int = 400,
        warmup: int = 100,
        record_series: bool = False,
    ) -> None:
        """Initialise accumulators for a ``ticks``-long measured run."""
        if ticks < 0:
            raise ConfigError(f"cannot run a negative tick count, got {ticks}")
        self._run_ticks = ticks
        self._run_warmup = warmup
        self._run_record_series = record_series
        self._run_tick = 0
        self._acc = np.zeros(self.n_classes, dtype=np.float64)
        self._measured_ticks = 0
        self._series: List[Tuple[int, float, float, float]] = []
        self._conf_interval = max(10, self.aggregation_interval // 2)
        self._last_admitted: Optional[np.ndarray] = None
        self._admitted_total = 0.0

    def step_run(self) -> bool:
        """Advance one tick; returns ``False`` once the run is complete."""
        if self._run_tick >= self._run_ticks:
            return False
        tick = self._run_tick
        tel = self.telemetry
        prof = current_tracer().profiler
        clock = prof.start() if prof is not None else 0.0
        if prof is None:
            for hook in self._tick_hooks:
                hook(self, tick)
        else:
            for hook, label in zip(self._tick_hooks, self._hook_labels):
                hook(self, tick)
                clock = prof.lap(label, clock)
        rates = self._send_rates()
        # ewma += 0.1 * (rates - ewma), through one scratch array that
        # then becomes this tick's arrivals
        scratch = rates - self._rate_ewma
        scratch *= 0.1
        self._rate_ewma += scratch
        if prof is not None:
            clock = prof.lap("sources", clock)
        own_s = self._loads_by_slot(rates)
        surv_s = self._slot_survival(own_s)
        # indices are slots below n_slots by construction; "clip" only
        # spares take() the bounds-checked copy it makes under "raise"
        arrivals = np.take(surv_s, self._class_slot, out=scratch, mode="clip")
        arrivals *= rates
        arr_s = own_s * surv_s
        if prof is not None:
            clock = prof.lap("queueing", clock)
        if self.strategy == "nd":
            admitted = self._admit_nd(arrivals, arr_s)
        elif self.strategy == "ff":
            admitted = self._admit_ff(arrivals)
        else:
            admitted = self._admit_floc(arrivals, tick, arr_s)
            if tick % self._conf_interval == 0:
                self._update_conformance()
        if prof is not None:
            clock = prof.lap("policy", clock)
        if tel.enabled and tick % tel.sample_interval_ticks == 0:
            tel.registry.series("fluid_admitted_pkts_per_tick").sample(
                tick, self._admitted_total
            )
        # TCP fluid update, legitimate classes only (a bot's window is
        # never read)
        legit = self._legit_idx
        sent = rates[legit]
        # the admitted fraction, 1.0 where nothing was sent
        ratio = np.ones(sent.shape[0])
        np.divide(admitted[legit], sent, out=ratio, where=sent > 1e-12)
        # ``np.clip(x, lo, hi)`` is ``minimum(maximum(x, lo), hi)``; the
        # two differ at most in which of two equal operands they return,
        # and here no tie has two: ``1.0 - x`` is never -0.0 (round to
        # nearest gives +0.0 for ``1.0 - 1.0``), the bounds are not zeros
        # of the other sign, and every operand is finite (rates and
        # windows are, and ``sent`` is divided by only above 1e-12)
        p_drop = np.subtract(1.0, ratio, out=ratio)
        np.minimum(np.maximum(p_drop, 0.0, out=p_drop), 1.0, out=p_drop)
        w = self.w[legit]
        dw = self._inv_rtt_legit - 0.5 * w * p_drop * sent
        w += dw
        self.w[legit] = np.minimum(
            np.maximum(w, 0.5, out=w), self._w_max_legit, out=w
        )
        self._last_admitted = admitted
        if tick >= self._run_warmup:
            self._acc += admitted
            self._measured_ticks += 1
            if self._run_record_series:
                self._series.append(self._series_point(tick, admitted))
        if prof is not None:
            prof.lap("tcp", clock)
            prof.tick_done()
        self._run_tick = tick + 1
        return self._run_tick < self._run_ticks

    def _series_point(
        self, tick: int, admitted: np.ndarray
    ) -> Tuple[int, float, float, float]:
        """One series sample: per-category admitted volume at the
        target, as a fraction of its capacity."""
        by_cat = self._by_category_and_as(admitted)
        cap = self.scn.target_capacity
        return (
            tick,
            float(np.sum(by_cat[0]) / cap),
            float(np.sum(by_cat[1]) / cap),
            float(np.sum(by_cat[2]) / cap),
        )

    def _by_category_and_as(self, per_member: np.ndarray) -> np.ndarray:
        """The per-class, per-member ``per_member`` summed over flows per
        (category, origin AS): one row per entry of ``CATEGORY_NAMES``."""
        n_as = self.scn.topology.n_as
        weighted = self.count * per_member
        return np.stack(
            [
                np.bincount(
                    self.class_origin,
                    weights=np.where(self._class_cat == idx, weighted, 0.0),
                    minlength=n_as,
                )
                for idx in range(len(CATEGORY_NAMES))
            ]
        )

    def finish_run(self) -> FluidResult:
        """Assemble the :class:`FluidResult` for a completed (or salvaged
        partial) run."""
        if self.telemetry.enabled:
            self.telemetry.scrape_fluid(self)
        matrix = self._by_category_and_as(self._acc)
        measured_ticks = max(1, self._measured_ticks)
        budget = self.scn.target_capacity * measured_ticks
        shares: Dict[str, float] = {}
        per_flow_mean: Dict[str, float] = {}
        n_flows: Dict[str, int] = {}
        for idx, name in enumerate(CATEGORY_NAMES):
            total = float(np.sum(matrix[idx]))
            shares[name] = total / budget
            count = self._n_flows_by_cat[name]
            n_flows[name] = count
            per_flow_mean[name] = (
                total / (count * measured_ticks) if count else 0.0
            )
        return FluidResult(
            strategy=self.strategy,
            s_max=self.s_max,
            shares=shares,
            utilization=float(np.sum(matrix)) / budget,
            per_flow_mean=per_flow_mean,
            n_flows=n_flows,
            n_groups=self.n_groups,
            series=list(self._series),
        )

    def run(
        self,
        ticks: int = 400,
        warmup: int = 100,
        record_series: bool = False,
    ) -> FluidResult:
        """Simulate and return bandwidth shares at the target link."""
        self.begin_run(ticks, warmup, record_series)
        while self.step_run():
            pass
        return self.finish_run()

    def _update_conformance(self) -> None:
        """Fold the current flagging into per-path conformance."""
        # flows, not classes: every count is a whole number, so the float
        # sums are exact
        flagged = self._loads_by_as(self._flagged).astype(np.int64).tolist()
        totals = self._counts_by_as.tolist()
        self.conformance.update_many(
            (pid, totals[asn], flagged[asn])
            for asn, pid in self.pid_of_as.items()
        )

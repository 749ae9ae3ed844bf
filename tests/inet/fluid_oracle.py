"""The fluid simulator as it stood at commit ``2cb5ca7``, kept as the oracle.

Everything below the imports is the old ``repro.inet.simulator`` verbatim,
save one later model change it must share: a group counts as
over-subscribed only above its allocation by a ``1e-9`` relative margin.
One state row per *flow* — windows, smoothed rates, flags, accumulators
and admitted volumes are all full-length arrays, and every per-AS
reduction is a ``bincount`` over the flows.  ``test_fluid_classes.py``
requires the class-collapsed simulator, fully split into singleton
classes, to match this byte for byte, and collapsed to match it per
member within float rounding.  Do not modernise it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.aggregation import build_plan
from repro.core.conformance import ConformanceTracker
from repro.errors import ConfigError
from repro.inet.scenarios import InternetScenario
from repro.telemetry import NullTelemetry, current
from repro.trace import current_tracer

STRATEGIES = ("nd", "ff", "floc")

#: ``FluidSimulator`` attributes rebuilt by ``_build_derived`` instead of
#: being checkpointed
_DERIVED = (
    "_levels",
    "_rtt_as",
    "_tcp_floor_as",
    "_counts_as_f64",
    "_legit_idx",
    "_rtt_legit",
    "_inv_rtt_legit",
    "_w_max_legit",
)

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
        self.cats = scn.categories()
        self.n_flows = int(self.origin.shape[0])
        self._counts_by_as = np.bincount(
            self.origin, minlength=scn.topology.n_as
        )
        self._n_flows_by_cat = {
            name: int(np.count_nonzero(self.cats == idx))
            for idx, name in enumerate(CATEGORY_NAMES)
        }
        self.pid_of_as = {
            asn: scn.topology.path_of(asn) for asn in set(self.origin.tolist())
        }
        # per-AS topology helpers
        depth = np.asarray(scn.topology.depth, dtype=np.float64)
        self.parent = np.asarray(scn.topology.parent, dtype=np.int64)
        order = np.argsort(-depth)  # deepest first: children before parents
        self.as_order = order
        self._build_derived()
        # TCP windows, per flow; only the legitimate entries ever move
        self.w = np.minimum(2.0, scn.legit_rate * self._rtt_as[self.origin])
        self.conformance = ConformanceTracker(beta=0.2)
        self._plan = None
        self._group_of_as: Optional[np.ndarray] = None
        self._group_shares: Optional[np.ndarray] = None
        self._flagged = np.zeros(self.n_flows, dtype=bool)
        # smoothed send rate: the fluid analogue of the MTD measurement
        # window (Eq. IV.4 averages drops over k periods; drops are
        # proportional to send rate, so a smoothed rate carries the same
        # signal)
        self._rate_ewma = np.zeros(self.n_flows, dtype=np.float64)
        self.n_groups = 0

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in _DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._build_derived()

    def _build_derived(self) -> None:
        """(Re)build the static lookup tables of the step hot path.

        Everything here is a pure function of the scenario and of state
        that *is* checkpointed, so none of it is pickled (see
        ``_DERIVED``): a checkpoint stays as small as the state it
        records, and one written without these attributes loads.
        """
        depth = np.asarray(self.scn.topology.depth, dtype=np.int64)
        # RTT: two ticks per AS hop plus destination handling
        self._rtt_as = 2.0 * (depth + 2.0)
        # the rate below which a starved-but-conformant TCP flow cannot
        # send (see the flag bar in ``_admit_floc``)
        self._tcp_floor_as = 2.5 / self._rtt_as
        self._counts_as_f64 = self._counts_by_as.astype(np.float64)
        # the AIMD model runs on the legitimate flows only
        self._legit_idx = np.flatnonzero(~self.is_attack)
        self._rtt_legit = self._rtt_as[self.origin[self._legit_idx]]
        self._inv_rtt_legit = 1.0 / self._rtt_legit
        self._w_max_legit = self.scn.legit_rate * self._rtt_legit
        # the survival pass walks the tree one depth level at a time,
        # deepest first, in ``as_order`` order within a level (the order
        # fixes the float summation order into each parent)
        order = self.as_order[self.as_order != 0]
        cuts = np.flatnonzero(np.diff(depth[order])) + 1
        self._levels = [
            (nodes, self.parent[nodes]) for nodes in np.split(order, cuts)
        ]

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
        self._flagged[:] = False
        self._rate_ewma[:] = 0.0
        self.n_groups = 0
        self._warmup_until = now + warmup_ticks

    # ------------------------------------------------------------------
    # per-tick pieces
    # ------------------------------------------------------------------
    def _send_rates(self) -> np.ndarray:
        """Per-flow send rate: ``scn.attack_rate`` for bots (a scalar or
        a per-flow array, read on every call — ``FluidRateRandomizer``
        replaces it mid-run), window over RTT for legitimate flows."""
        rates = np.full(self.n_flows, self.scn.attack_rate, dtype=np.float64)
        legit = self._legit_idx
        rates[legit] = self.w[legit] / self._rtt_legit
        return rates

    def _loads_by_as(self, rates: np.ndarray) -> np.ndarray:
        """Per-origin-AS source load."""
        return np.bincount(
            self.origin, weights=rates, minlength=self.scn.topology.n_as
        )

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
        """
        caps = self.scn.link_capacity
        inflow = np.array(own, dtype=np.float64)
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
        """Reduce per-flow rates per AS and propagate (``step_run`` keeps
        the load vector, so it calls the two halves itself)."""
        return self._survival_from_loads(self._loads_by_as(rates))

    # -- target-link strategies ------------------------------------------
    def _admit_nd(
        self, arrivals: np.ndarray, arr_by_as: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Uniform random-drop admission.

        The arrival total is reduced from the per-AS vector, which
        ``step_run`` already holds; direct callers may omit it.
        """
        if arr_by_as is None:
            arr_by_as = np.bincount(
                self.origin, weights=arrivals, minlength=self.scn.topology.n_as
            )
        total = float(np.sum(arr_by_as))
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
        legit = ~self.is_attack
        hp = np.where(legit, arrivals, np.minimum(arrivals, fair))
        lp = np.where(self.is_attack, arrivals - hp, 0.0)
        n_as = self.scn.topology.n_as
        hp_total = float(
            np.sum(np.bincount(self.origin, weights=hp, minlength=n_as))
        )
        if hp_total >= cap:
            self._admitted_total = hp_total * (cap / hp_total)
            return hp * (cap / hp_total)
        admitted = hp.copy()
        remaining = cap - hp_total
        lp_total = float(
            np.sum(np.bincount(self.origin, weights=lp, minlength=n_as))
        )
        granted = 0.0
        if lp_total > 0:
            factor = min(1.0, remaining / lp_total)
            admitted += lp * factor
            granted = lp_total * factor
        self._admitted_total = hp_total + granted
        return admitted

    def _rebuild_groups(self) -> None:
        """Run conformance partition + aggregation, rebuild group arrays."""
        ases = sorted(self.pid_of_as)
        pids = [self.pid_of_as[a] for a in ases]
        counts_by_as = self._counts_by_as.tolist()
        legit, attack = self.conformance.partition(pids, threshold=0.5)
        self._plan = build_plan(
            legit,
            attack,
            self.conformance.values(),
            {pid: float(counts_by_as[asn]) for asn, pid in zip(ases, pids)},
            self.s_max,
        )
        group_keys = {}
        group_of_as = [0] * self.scn.topology.n_as
        shares: List[float] = []
        for asn, pid in zip(ases, pids):
            key = self._plan.group(pid)
            if key not in group_keys:
                group_keys[key] = len(shares)
                shares.append(self._plan.shares.get(key, 1.0))
            group_of_as[asn] = group_keys[key]
        self._group_of_as = np.asarray(group_of_as, dtype=np.int64)
        self._group_shares = np.asarray(shares, dtype=np.float64)
        self.n_groups = len(shares)

    def _class_sums(
        self,
        origin_u: np.ndarray,
        arrivals_u: np.ndarray,
        origin_f: np.ndarray,
        arrivals_f: np.ndarray,
        capped_f: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Per-origin-AS sums of the two flag classes' arrivals and of
        the flagged class's capped arrivals.

        ``np.bincount`` over an empty class returns *int64* zeros, so the
        dtype is pinned: every sum is float64 of shape ``(n_as,)`` for
        every input (a no-op for a non-empty class).
        """
        n_as = self.scn.topology.n_as
        classes = (
            (origin_u, arrivals_u), (origin_f, arrivals_f), (origin_f, capped_f)
        )
        return tuple(
            np.bincount(origin, weights=weights, minlength=n_as).astype(
                np.float64, copy=False
            )
            for origin, weights in classes
        )

    def _admit_floc(
        self,
        arrivals: np.ndarray,
        tick: int,
        arr_by_as: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_as = self.scn.topology.n_as
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arr_by_as is None:
            arr_by_as = np.bincount(
                self.origin, weights=arrivals, minlength=n_as
            )
        if self._warmup_until is not None:
            if tick >= self._warmup_until:
                self._warmup_until = None
            else:
                # post-restart warm-up: no per-path state to allocate by,
                # so degrade to neutral admission while rates re-smooth
                admitted = self._admit_nd(arrivals, arr_by_as)
                tel = self.telemetry
                if tel.enabled:
                    tel.record_fluid_drop_volumes(
                        tick,
                        neutral=float(np.sum(arr_by_as)) - self._admitted_total,
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
        gidx_as = self._group_of_as
        shares = self._group_shares
        n_groups = self.n_groups
        alloc = cap * shares / shares.sum()

        # group demand/size from the per-AS vectors (group membership
        # is per origin AS, so AS-level bincounts are exact)
        group_arrival = np.bincount(
            gidx_as, weights=arr_by_as, minlength=n_groups
        )
        group_flows = np.bincount(
            gidx_as, weights=self._counts_as_f64, minlength=n_groups
        )
        fair = alloc / np.maximum(group_flows, 1.0)

        # Everything below that depends on a flow only through its origin
        # AS is computed on the n_as vector and gathered once per flow.
        fair_as = fair[gidx_as]
        # MTD-equivalent flagging: a flow whose *smoothed* send rate stays
        # above the flag factor times its fair share, inside an
        # over-subscribed group, is an attack flow (its drop rate — and so
        # its MTD — tracks that sustained rate; adaptive TCP flows decay
        # below the bar within an RTT or two).
        # the AIMD fluid model bottoms out at w = sqrt(2) (timeouts are not
        # modelled), so a conformant-but-starved TCP flow cannot send
        # slower than ~sqrt(2)/RTT; rates at or below that floor are what
        # the MTD reference classifies as responsive, so they never flag.
        bar_as = np.maximum(
            self.attack_flag_factor * fair_as, self._tcp_floor_as
        )
        # no rate exceeds an infinite bar: folds "and the group is
        # over-subscribed" (beyond a 1e-9 relative margin) into the one
        # per-flow compare
        bar_as[~(group_arrival > alloc * (1.0 + 1e-9))[gidx_as]] = np.inf
        origin = self.origin
        previously_flagged = self._flagged
        flagged = self._rate_ewma > bar_as[origin]
        self._flagged = flagged
        unflagged = ~flagged

        # From here on the two flag classes are worked on as compressed
        # per-class arrays and written into the per-flow result once.
        # Each per-AS bincount runs over its own class only: the flows it
        # leaves out would add 0.0, which changes no partial sum, so every
        # entry is bit-equal to the full-length masked reduction.
        origin_u = origin[unflagged]
        arrivals_u = arrivals[unflagged]
        origin_f = origin[flagged]
        arrivals_f = arrivals[flagged]
        # Eq.-(IV.5) preferential cap: flagged flows get at most fair share
        admitted_f = fair_as[origin_f]
        np.minimum(arrivals_f, admitted_f, out=admitted_f)

        arr_unflagged, arr_flagged, capped_flagged = self._class_sums(
            origin_u, arrivals_u, origin_f, arrivals_f, admitted_f
        )
        if tel.enabled:
            n_flagged = int(origin_f.shape[0])
            n_still = int(np.count_nonzero(flagged & previously_flagged))
            newly = n_flagged - n_still
            cleared = int(np.count_nonzero(previously_flagged)) - n_still
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

        capped_by_as = arr_unflagged + capped_flagged
        group_demand = np.bincount(
            gidx_as, weights=capped_by_as, minlength=n_groups
        )
        scale = np.minimum(1.0, alloc / np.maximum(group_demand, 1e-12))
        scale_as = scale[gidx_as]
        # admitted = capped * scale
        admitted_u = scale_as[origin_u]
        admitted_u *= arrivals_u
        admitted_f *= scale_as[origin_f]
        admitted_total = float(np.sum(capped_by_as * scale_as))

        # work conservation (congested-mode random drop admits without
        # tokens): leftover capacity goes to *unflagged* flows' unmet
        # demand first — flagged flows are still preferentially dropped —
        # and only then to flagged flows.  The pool totals decompose per
        # AS (unmet = arrivals - capped*scale), so they reduce from the
        # per-AS class sums.
        pool_unflagged = float(np.sum(arr_unflagged - arr_unflagged * scale_as))
        pool_flagged = float(np.sum(arr_flagged - capped_flagged * scale_as))
        grant_unflagged = 0.0
        grant_flagged = 0.0
        leftover = cap - admitted_total
        if leftover > 1e-9:
            if pool_unflagged > 1e-9:
                grant_unflagged = min(1.0, leftover / pool_unflagged)
                leftover -= pool_unflagged * grant_unflagged
            if leftover > 1e-9 and pool_flagged > 1e-9:
                grant_flagged = min(1.0, leftover / pool_flagged)
            # admitted += (arrivals - admitted) * grant, per class; the
            # compressed arrival copies double as the unmet-demand buffers
            arrivals_u -= admitted_u
            arrivals_u *= grant_unflagged
            admitted_u += arrivals_u
            arrivals_f -= admitted_f
            arrivals_f *= grant_flagged
            admitted_f += arrivals_f
        admitted = np.empty(self.n_flows, dtype=np.float64)
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
    # stepwise run interface (crash-safe checkpointing: repro.runner
    # pickles the simulator between step_run calls, so every piece of run
    # state lives on self rather than in loop locals)
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
        self._acc = np.zeros(self.n_flows, dtype=np.float64)
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
        own = self._loads_by_as(rates)
        surv = self._survival_from_loads(own)
        # indices are AS numbers below n_as by construction; "clip" only
        # spares take() the bounds-checked copy it makes under "raise"
        arrivals = np.take(surv, self.origin, out=scratch, mode="clip")
        arrivals *= rates
        arr_by_as = own * surv
        if prof is not None:
            clock = prof.lap("queueing", clock)
        if self.strategy == "nd":
            admitted = self._admit_nd(arrivals, arr_by_as)
        elif self.strategy == "ff":
            admitted = self._admit_ff(arrivals)
        else:
            admitted = self._admit_floc(arrivals, tick, arr_by_as)
            if tick % self._conf_interval == 0:
                self._update_conformance()
        if prof is not None:
            clock = prof.lap("policy", clock)
        if tel.enabled and tick % tel.sample_interval_ticks == 0:
            tel.registry.series("fluid_admitted_pkts_per_tick").sample(
                tick, self._admitted_total
            )
        # TCP fluid update, legitimate flows only (a bot's window is
        # never read)
        legit = self._legit_idx
        sent = rates[legit]
        p_drop = 1.0 - np.divide(
            admitted[legit], sent, out=np.ones_like(sent), where=sent > 1e-12
        )
        p_drop = np.clip(p_drop, 0.0, 1.0)
        w = self.w[legit]
        dw = self._inv_rtt_legit - 0.5 * w * p_drop * sent
        self.w[legit] = np.clip(w + dw, 0.5, self._w_max_legit)
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

    def _by_category_and_as(self, per_flow: np.ndarray) -> np.ndarray:
        """``per_flow`` summed per (category, origin AS): one row per
        entry of ``CATEGORY_NAMES``."""
        n_as = self.scn.topology.n_as
        return np.stack(
            [
                np.bincount(
                    self.origin,
                    weights=np.where(self.cats == idx, per_flow, 0.0),
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
        n_as = self.scn.topology.n_as
        flagged = np.bincount(
            self.origin, weights=self._flagged.astype(np.float64), minlength=n_as
        ).tolist()
        totals = self._counts_by_as.tolist()
        for asn, pid in self.pid_of_as.items():
            self.conformance.update(pid, totals[asn], int(flagged[asn]))

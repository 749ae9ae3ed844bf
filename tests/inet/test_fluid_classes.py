"""The class-collapsed fluid simulator against the per-flow one it replaced.

``fluid_oracle.py`` is the per-flow simulator verbatim.  On drawn
scenarios — trees, flow placements in any order, link capacities, bot
and legitimate rates, the three strategies — and on the shapes a free
draw rarely reaches (no flow flagged, every flow flagged, an AS of bots
only, a single flow, a starved target, and runs under the rate
randomizer, counter corruption, a degraded uplink and a defense
restart), every tick is compared:

* **fully split** (every flow a singleton class): every value the step
  hands from one stage to the next, and every piece of state, has the
  oracle's dtype, shape and bytes, and the results' fields pickle
  identically.  The simulator hands its per-AS values over on the slot
  axis (the ASes with flows); they are compared in the per-AS layout,
  zeros at the ASes without flows, against the oracle's value with the
  same zeros;
* **collapsed** (the default partition, one class per origin AS and
  kind): every member's flag and every group plan is the oracle's, and
  every share is within 1e-12 relative.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import (
    FaultSchedule,
    FluidCounterCorruption,
    FluidLinkDegrade,
    fluid_restart,
)
from repro.inet.scenarios import InternetScenario, build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.inet.skitter import SkitterLikeMap
from repro.traffic.adaptive import FluidRateRandomizer

from . import fluid_oracle
from .test_fluid_equivalence import trees

TICKS = 48
WARMUP = 16
REL = 1e-12

#: the oracle's methods whose return value is the next stage's input
HANDOFFS = (
    "_send_rates",
    "_survival_from_loads",
    "_admit_nd",
    "_admit_ff",
    "_admit_floc",
    "_class_sums",
)

#: the simulator's hand-offs: the same methods, except that the step's
#: per-AS values come from slot-axis methods, recorded under the name of
#: the oracle method they stand for
SIM_HANDOFFS = {
    "_send_rates": "_send_rates",
    "_slot_survival": "_survival_from_loads",
    "_admit_nd": "_admit_nd",
    "_admit_ff": "_admit_ff",
    "_admit_floc": "_admit_floc",
    "_class_sums": "_class_sums",
}

#: the hand-offs that hold per-AS values
PER_AS = ("_survival_from_loads", "_class_sums")


def in_as_layout(sim, name, out):
    """A simulator hand-off in the per-AS layout: a slot vector (or a
    tuple of them) spread over the ASes, zeros elsewhere, dtype kept."""
    if name not in PER_AS:
        return out
    if isinstance(out, tuple):
        return tuple(in_as_layout(sim, name, v) for v in out)
    assert out.shape == sim._slot_as.shape, name
    spread = np.zeros(sim.scn.topology.n_as, dtype=out.dtype)
    spread[sim._slot_as] = out
    return spread


def at_ases_with_flows(oracle, name, out):
    """An oracle hand-off with the per-AS entries of the ASes without
    flows, which the step never reads, zeroed (dtype kept)."""
    if name not in PER_AS:
        return out
    if isinstance(out, tuple):
        return tuple(at_ases_with_flows(oracle, name, v) for v in out)
    out = out.copy()
    out[oracle._counts_by_as == 0] = 0
    return out


def recording(cls, handoffs, layout):
    """``cls`` with the return value of every method in ``handoffs`` (a
    map from method to hand-off name) copied into ``self.handoffs`` as
    ``(name, layout(self, name, value))``."""

    class Recording(cls):
        pass

    for method_name, name in handoffs.items():

        def method(self, *args, _method=method_name, _name=name, **kwargs):
            out = getattr(cls, _method)(self, *args, **kwargs)
            self.__dict__.setdefault("handoffs", []).append(
                (_name, layout(self, _name, copy.deepcopy(out)))
            )
            return out

        setattr(Recording, method_name, method)
    return Recording


class Oracle(fluid_oracle.FluidSimulator):
    """The per-flow simulator, with the two members the hooks use: every
    flow already is a class of its own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flow_class = np.arange(self.n_flows)

    def split(self, flows):
        pass


RecordingOracle = recording(
    Oracle, {name: name for name in HANDOFFS}, at_ases_with_flows
)
RecordingSim = recording(FluidSimulator, SIM_HANDOFFS, in_as_layout)

SHAPES = (
    "free",
    "none_flagged",
    "all_flagged",
    "attack_only_as",
    "single_flow",
    "starved_target",
    "randomizer",
    "corruption",
    "degrade",
    "restart",
)

RATES = st.sampled_from([0.2, 0.5, 1.0, 2.0, 3.3, 6.5])
CAPS = st.sampled_from([0.0, 1.5, 4.0, 9.0, 100.0])


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    parent = draw(trees(max_as=10))
    n_as = len(parent)
    n_flows = (
        1 if shape == "single_flow"
        else draw(st.integers(min_value=1, max_value=36))
    )
    # any flow order: classes must follow their first member wherever it is
    origins = draw(
        st.lists(
            st.integers(min_value=1, max_value=n_as - 1),
            min_size=n_flows, max_size=n_flows,
        )
    )
    is_attack = draw(st.lists(st.booleans(), min_size=n_flows, max_size=n_flows))
    case = {
        "shape": shape,
        "parent": parent,
        "origins": origins,
        "is_attack": is_attack,
        "caps": [0.0] + draw(st.lists(CAPS, min_size=n_as - 1, max_size=n_as - 1)),
        "target": draw(st.sampled_from([0.5, 2.0, 6.0, 25.0])),
        "attack_rate": draw(RATES),
        "legit_rate": draw(RATES),
        "strategy": draw(st.sampled_from(["nd", "ff", "floc"])),
        "s_max": draw(st.sampled_from([None, 2, 4])),
        "interval": draw(st.sampled_from([5, 10, 50])),
        "fault_tick": draw(st.integers(min_value=0, max_value=TICKS - 1)),
        "fault_arg": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        "fault_as": draw(st.integers(min_value=1, max_value=n_as - 1)),
    }
    if shape == "none_flagged":
        case["target"] = 1e6  # no group is ever over-subscribed
    elif shape == "all_flagged":
        case["is_attack"] = [True] * n_flows
        case["attack_rate"] = 6.5
        case["target"] = 0.5
        case["caps"] = [0.0] * n_as
    elif shape == "attack_only_as":
        case["is_attack"] = [
            a or o == origins[0] for o, a in zip(origins, is_attack)
        ]
    elif shape == "starved_target":
        case["target"] = 0.005
    if shape in ("none_flagged", "all_flagged"):
        case["strategy"] = "floc"
    return case


def scenario_of(case):
    parent = case["parent"]
    n_as = len(parent)
    depth = [0] * n_as
    paths = {0: (0,)}
    for asn in range(1, n_as):  # parents precede children by construction
        depth[asn] = depth[parent[asn]] + 1
        paths[asn] = (asn,) + paths[parent[asn]]
    origins, is_attack = case["origins"], case["is_attack"]
    return InternetScenario(
        topology=SkitterLikeMap(
            variant="test", parent=list(parent), depth=depth, paths=paths
        ),
        placement="localized",
        target_capacity=case["target"],
        link_capacity=np.asarray(
            [case["target"]] + case["caps"][1:], dtype=np.float64
        ),
        flow_origin_as=np.asarray(origins, dtype=np.int64),
        flow_is_attack=np.asarray(is_attack, dtype=bool),
        attack_ases=sorted({o for o, a in zip(origins, is_attack) if a}),
        legit_rate=case["legit_rate"],
        attack_rate=case["attack_rate"],
    )


def build(cls, case, split_all=False):
    """A simulator of ``cls`` on a fresh scenario (hooks rewrite it) with
    the shape's hook installed and its run begun."""
    sim = cls(
        scenario_of(case), strategy=case["strategy"], s_max=case["s_max"],
        aggregation_interval=case["interval"], seed=3,
    )
    if split_all:
        sim.split(np.arange(sim.n_flows))
    shape, tick, arg = case["shape"], case["fault_tick"], case["fault_arg"]
    if shape == "randomizer":
        sim.add_tick_hook(FluidRateRandomizer(interval=1 + tick % 7, spread=0.5))
    elif shape == "corruption":
        FaultSchedule().at(
            tick, FluidCounterCorruption(fraction=max(arg, 0.1)), name="neg"
        ).install(sim)
    elif shape == "degrade":
        degrade = FluidLinkDegrade(case["fault_as"], factor=arg)
        faults = FaultSchedule()
        faults.at(tick // 2, degrade.down, name="down")
        faults.at(tick, degrade.up, name="up")
        faults.install(sim)
    elif shape == "restart":
        FaultSchedule().at(
            tick, fluid_restart(warmup_ticks=1 + tick % 9)
        ).install(sim)
    sim.begin_run(ticks=TICKS, warmup=WARMUP, record_series=True)
    return sim


def per_flow_state(sim):
    return {
        name: getattr(sim, name)[sim.flow_class]
        for name in ("w", "_rate_ewma", "_flagged", "_acc", "_last_admitted")
    }


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_plan(sim, oracle, tick):
    assert sim.n_groups == oracle.n_groups, tick
    for name in ("_group_of_as", "_group_shares"):
        got, want = getattr(sim, name), getattr(oracle, name)
        if want is None:
            assert got is None, (tick, name)
        else:
            assert_same_array(got, want, (tick, name))


def close(got, want):
    return abs(got - want) <= REL * max(abs(got), abs(want))


@given(cases())
@settings(max_examples=200, deadline=None)
def test_fully_split_matches_per_flow_oracle_bytes(case):
    oracle = build(RecordingOracle, case)
    sim = build(RecordingSim, case, split_all=True)
    assert sim.n_classes == sim.n_flows
    more = True
    while more:
        oracle.handoffs = []
        sim.handoffs = []
        more = oracle.step_run()
        assert sim.step_run() == more
        tick = sim._run_tick
        assert [n for n, _ in sim.handoffs] == [n for n, _ in oracle.handoffs]
        for (name, got), (_, want) in zip(sim.handoffs, oracle.handoffs):
            if isinstance(want, tuple):
                assert len(got) == len(want)
                for i, (g, w) in enumerate(zip(got, want)):
                    assert_same_array(g, w, (tick, name, i))
            else:
                assert_same_array(got, want, (tick, name))
        want_state = per_flow_state(oracle)
        for name, got in per_flow_state(sim).items():
            assert_same_array(got, want_state[name], (tick, name))
        assert repr(sim._admitted_total) == repr(oracle._admitted_total)
        assert_same_plan(sim, oracle, tick)
        assert sim.conformance.values() == oracle.conformance.values()
    # two FluidResult classes (the oracle has its own): compare the fields
    got, want = sim.finish_run(), oracle.finish_run()
    assert pickle.dumps(vars(got)) == pickle.dumps(vars(want))


#: AS 1's uplink (capacity 1.5) carries its subtree {1, 2, 4}; after the
#: tick-45 regroup that subtree and the flowless target AS 0 form a group
#: whose allocation is 1.5 too, so its arrival sits on the
#: over-subscription boundary
SATURATED_UPLINK_IS_A_GROUP = {
    "shape": "free",
    "parent": [0, 0, 1, 0, 1],
    "origins": [1] * 12 + [2] * 7 + [3] * 4 + [4] * 3 + [2] * 2,
    "is_attack": [False] * 26 + [True] * 2,
    "caps": [0.0, 1.5, 0.0, 0.0, 0.0],
    "target": 2.0,
    "attack_rate": 6.5,
    "legit_rate": 0.2,
    "strategy": "floc",
    "s_max": None,
    "interval": 5,
    "fault_tick": 0,
    "fault_arg": 0.0,
    "fault_as": 1,
}


@given(cases())
@settings(max_examples=200, deadline=None)
@example(case=SATURATED_UPLINK_IS_A_GROUP)
def test_collapsed_matches_per_flow_oracle_per_member(case):
    oracle = build(Oracle, case)
    sim = build(FluidSimulator, case)
    ever_flagged = False
    more = True
    while more:
        more = oracle.step_run()
        assert sim.step_run() == more
        tick = sim._run_tick
        flags = sim._flagged[sim.flow_class]
        assert_same_array(flags, oracle._flagged, (tick, "_flagged"))
        assert_same_plan(sim, oracle, tick)
        ever_flagged |= bool(flags.any())
    if case["shape"] == "none_flagged":
        assert not ever_flagged
    elif case["shape"] == "all_flagged":
        assert oracle._flagged.all()
    got, want = sim.finish_run(), oracle.finish_run()
    assert got.n_flows == want.n_flows and got.n_groups == want.n_groups
    for name, share in want.shares.items():
        assert close(got.shares[name], share), name
        assert close(got.per_flow_mean[name], want.per_flow_mean[name]), name
    assert close(got.utilization, want.utilization)
    assert len(got.series) == len(want.series)
    for g, w in zip(got.series, want.series):
        assert g[0] == w[0]
        assert all(close(a, b) for a, b in zip(g[1:], w[1:])), g[0]


# ----------------------------------------------------------------------
# the partition itself
# ----------------------------------------------------------------------
def small_scenario(**overrides):
    kwargs = dict(
        n_as=60, n_legit_sources=120, n_legit_ases=12, n_bots=900,
        target_capacity=60.0, seed=5,
    )
    kwargs.update(overrides)
    return build_internet_scenario(**kwargs)


class TestPartition:
    def test_one_class_per_origin_and_kind_in_first_member_order(self):
        scenario = small_scenario()
        sim = FluidSimulator(scenario)
        pairs = list(
            zip(scenario.flow_origin_as.tolist(), scenario.flow_is_attack.tolist())
        )
        first_seen = list(dict.fromkeys(pairs))
        assert sim.n_classes == len(first_seen)
        assert [pairs[f] for f in sim._class_first] == first_seen
        assert [first_seen[c] for c in sim.flow_class] == pairs
        assert sim.count.dtype == np.float64
        assert sim.count.sum() == sim.n_flows

    def test_split_keeps_first_member_order_and_inherits_state(self):
        sim = FluidSimulator(small_scenario(), strategy="floc", seed=5)
        sim.begin_run(ticks=30, warmup=0)
        for _ in range(20):
            sim.step_run()
        before = per_flow_state(sim)
        classes = sim.n_classes
        big = int(np.argmax(sim.count))
        members = np.flatnonzero(sim.flow_class == big)
        sim.split([members[1], members[-1], members[1]])
        assert sim.n_classes == classes + 2
        assert np.all(np.diff(sim._class_first) > 0)
        assert sim.count[sim.flow_class[members[1]]] == 1.0
        assert sim.count[sim.flow_class[members[0]]] == len(members) - 2
        for name, got in per_flow_state(sim).items():
            assert got.tobytes() == before[name].tobytes(), name
        sim.split(members[[1, -1]])  # already singletons: nothing to do
        assert sim.n_classes == classes + 2
        while sim.step_run():
            pass

    def test_per_flow_attack_rate_refused_while_a_bot_class_is_shared(self):
        sim = FluidSimulator(small_scenario(), strategy="nd")
        sim.scn.attack_rate = np.full(sim.n_flows, 2.0)
        with pytest.raises(SimulationError, match="split the bots"):
            sim._send_rates()
        sim.split(np.flatnonzero(sim.is_attack))
        rates = sim._send_rates()
        assert np.all(rates[sim._class_attack] == 2.0)


# ----------------------------------------------------------------------
# buffers the step keeps across ticks or hands out
# ----------------------------------------------------------------------
ALIAS_SEED = 7


class TestScratch:
    """The per-tick buffers kept across ticks: the one every tick shares
    cannot be written."""

    def test_shared_no_clog_answer_is_read_only(self):
        # bots at the default rate: no uplink clogs
        scenario = build_internet_scenario(
            n_as=120, n_legit_sources=240, n_legit_ases=30, n_bots=2_000,
            target_capacity=150.0, seed=ALIAS_SEED,
        )
        sim = FluidSimulator(scenario, strategy="floc", seed=ALIAS_SEED)
        own_s = sim._loads_by_slot(sim._send_rates())
        assert not sim._clogs(own_s)
        surv = sim._slot_survival(own_s)
        assert surv is sim._slot_survival(own_s)
        assert surv.tobytes() == np.ones_like(own_s).tobytes()
        with pytest.raises(ValueError):
            surv[0] = 0.5
        with pytest.raises(ValueError):
            surv *= 0.5


class TestHandedOutArrays:
    @pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
    def test_later_ticks_never_write_what_a_tick_handed_out(self, strategy):
        """The ``_last_admitted`` a tick hook sees at tick t+1 is what
        tick t returned, and every array a tick published stays as it was
        for as long as someone holds it."""
        scenario = build_internet_scenario(
            n_as=120, n_legit_sources=240, n_legit_ases=30, n_bots=2_000,
            target_capacity=150.0, attack_rate=2.0, seed=ALIAS_SEED,
        )
        if strategy == "nd":
            # under capacity _admit_nd returns its argument: the step's
            # own arrivals array is then the one that is handed out
            scenario.target_capacity = 1e9
        sim = FluidSimulator(scenario, strategy=strategy, seed=ALIAS_SEED)
        held = []  # (name, tick, the live array, a copy taken on publication)
        seen_by_hook = []

        def hook(host, tick):
            if tick:
                _, _, _, snap = held[-2]
                assert host._last_admitted.tobytes() == snap.tobytes()
                seen_by_hook.append(tick)

        sim.add_tick_hook(hook)
        sim.begin_run(ticks=60, warmup=10)
        tick = 0
        more = True
        while more:
            more = sim.step_run()
            held.append(
                ("admitted", tick, sim._last_admitted, sim._last_admitted.copy())
            )
            held.append(("flagged", tick, sim._flagged, sim._flagged.copy()))
            tick += 1
        assert seen_by_hook == list(range(1, 60))
        for name, at, live, snap in held:
            assert live.tobytes() == snap.tobytes(), (name, at)
        admitted = [live for name, _, live, _ in held if name == "admitted"]
        assert len({id(a) for a in admitted}) == len(admitted)

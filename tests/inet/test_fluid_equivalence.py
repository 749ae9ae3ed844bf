"""The fluid step's fast paths against the code they replaced.

The per-AS survival loop and the full-length masked ``np.where``
reductions of ``_admit_floc`` live on here, verbatim, as oracles; the
simulator's level-wise survival pass and per-flag-class bincounts must
match them byte for byte on random trees, loads, capacities and flag
patterns — and on the degenerate *shapes* a random draw rarely reaches
(an empty flag class, a single flow, a starved target), where the
per-slot class sums (one entry per AS with flows), spread over the
ASes, must still be float64 of shape ``(n_as,)``: ``np.bincount`` over
an empty class returns int64 zeros, whose bytes equal float64 zeros',
so a bytes comparison alone cannot see it.  The
survival pass's no-clog shortcut is held to the same per-AS loop with
capacities a few ulps either side of an uplink's load, a boundary no
shipped run reaches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inet.scenarios import InternetScenario
from repro.inet.simulator import FluidSimulator
from repro.inet.skitter import SkitterLikeMap
from repro.telemetry import Telemetry

# loads and capacities drawn from a few exactly representable values, so
# ``offered == cap`` and all-zero subtrees actually occur
LOADS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 7.25])
CAPS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 8.0, 0.3, 100.0])


@st.composite
def trees(draw, max_as=24):
    """A random route tree as a parent list (``parent[0] == 0``)."""
    n_as = draw(st.integers(min_value=2, max_value=max_as))
    return [0] + [
        draw(st.integers(min_value=0, max_value=asn - 1))
        for asn in range(1, n_as)
    ]


def make_sim(parent, origins, is_attack, caps, cls=FluidSimulator, **kwargs):
    n_as = len(parent)
    depth = [0] * n_as
    paths = {0: (0,)}
    for asn in range(1, n_as):  # parents precede children by construction
        depth[asn] = depth[parent[asn]] + 1
        paths[asn] = (asn,) + paths[parent[asn]]
    scenario = InternetScenario(
        topology=SkitterLikeMap(
            variant="test", parent=list(parent), depth=depth, paths=paths
        ),
        placement="localized",
        target_capacity=float(caps[0]) or 1.0,
        link_capacity=np.asarray(caps, dtype=np.float64),
        flow_origin_as=np.asarray(origins, dtype=np.int64),
        flow_is_attack=np.asarray(is_attack, dtype=bool),
        attack_ases=sorted({o for o, a in zip(origins, is_attack) if a}),
        legit_rate=1.0,
        attack_rate=2.0,
    )
    return cls(scenario, strategy="floc", seed=1, **kwargs)


# ----------------------------------------------------------------------
# survival pass
# ----------------------------------------------------------------------
def survival_oracle(sim, own):
    """``_survival_from_loads`` as it was before the level-wise pass."""
    scn = sim.scn
    n_as = scn.topology.n_as
    admitted = np.zeros(n_as, dtype=np.float64)
    passfrac = np.ones(n_as, dtype=np.float64)
    inflow = own.copy()
    for asn in sim.as_order:
        if asn == 0:
            continue
        offered = inflow[asn]
        cap = scn.link_capacity[asn]
        if offered > cap > 0:
            passfrac[asn] = cap / offered
            admitted[asn] = cap
        else:
            admitted[asn] = offered
        inflow[sim.parent[asn]] += admitted[asn]
    surv = np.ones(n_as, dtype=np.float64)
    for asn in sim.as_order[::-1]:
        if asn == 0:
            continue
        surv[asn] = surv[sim.parent[asn]] * passfrac[asn]
    return surv


@st.composite
def survival_cases(draw):
    parent = draw(trees())
    n_as = len(parent)
    own = draw(st.lists(LOADS, min_size=n_as, max_size=n_as))
    caps = draw(st.lists(CAPS, min_size=n_as, max_size=n_as))
    changed_as = draw(st.integers(min_value=0, max_value=n_as - 1))
    changed_cap = draw(CAPS)
    return parent, own, caps, changed_as, changed_cap


@given(survival_cases())
@settings(max_examples=200, deadline=None)
def test_survival_pass_matches_per_as_loop(case):
    parent, own, caps, changed_as, changed_cap = case
    # one flow per non-root AS keeps the constructor happy; the loads
    # under test are handed to the pass directly
    origins = list(range(1, len(parent)))
    sim = make_sim(parent, origins, [False] * len(origins), caps)
    own = np.asarray(own, dtype=np.float64)
    want = survival_oracle(sim, own)
    assert sim._survival_from_loads(own).tobytes() == want.tobytes()
    assert own.tobytes() == np.asarray(case[1], dtype=np.float64).tobytes()
    # a capacity rewritten in place between calls (FluidLinkDegrade) ...
    sim.scn.link_capacity[changed_as] = changed_cap
    want = survival_oracle(sim, own)
    assert sim._survival_from_loads(own).tobytes() == want.tobytes()
    # ... and the whole array replaced
    sim.scn.link_capacity = sim.scn.link_capacity[::-1].copy()
    want = survival_oracle(sim, own)
    assert sim._survival_from_loads(own).tobytes() == want.tobytes()


def test_survival_pass_accumulates_irrational_loads_in_loop_order():
    """Float sums are order-sensitive: many children with loads that do
    not add exactly must reach their parent in ``as_order`` order."""
    rng = np.random.default_rng(3)
    parent = [0] + [int(rng.integers(0, max(1, asn // 3))) for asn in range(1, 300)]
    origins = list(range(1, 300))
    caps = rng.uniform(0.5, 4.0, size=300)
    sim = make_sim(parent, origins, [False] * len(origins), caps)
    for _ in range(20):
        own = rng.uniform(0.0, 1.0, size=300) * (rng.random(300) < 0.7)
        want = survival_oracle(sim, own)
        assert sim._survival_from_loads(own).tobytes() == want.tobytes()
        assert want.min() < 1.0


def unclogged_offered(sim, own):
    """Every uplink's offered load as the per-AS loop sums it when no
    uplink clogs."""
    inflow = own.copy()
    for asn in sim.as_order:
        if asn:
            inflow[sim.parent[asn]] += inflow[asn]
    return inflow


def nudged(x, ulps):
    """``x`` moved ``ulps`` representable floats up (or down, if < 0)."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = np.nextafter(x, toward)
    return x


@st.composite
def boundary_cases(draw):
    """Loads that do not add exactly, and capacities within a few ulps of
    an uplink's unclogged load, or of the shortcut's ``1e-9`` margin
    below it, on either side."""
    parent = draw(trees())
    n_as = len(parent)
    load = st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=10.0, width=64)
    )
    own = [0.0] + draw(st.lists(load, min_size=n_as - 1, max_size=n_as - 1))
    edges = [
        draw(
            st.tuples(
                st.sampled_from(["exact", "margin", "free", "none"]),
                st.integers(min_value=-4, max_value=4),
            )
        )
        for _ in range(n_as)
    ]
    return parent, own, edges


@given(boundary_cases())
@settings(max_examples=200, deadline=None)
def test_survival_shortcut_at_the_capacity_boundary(case):
    parent, own, edges = case
    n_as = len(parent)
    own = np.asarray(own, dtype=np.float64)
    origins = list(range(1, n_as))
    sim = make_sim(parent, origins, [False] * len(origins), [1.0] * n_as)
    offered = unclogged_offered(sim, own)
    caps = sim.scn.link_capacity
    for asn, (edge, ulps) in enumerate(edges[1:], start=1):
        if edge == "exact":
            caps[asn] = nudged(offered[asn], ulps)
        elif edge == "margin":
            caps[asn] = nudged(offered[asn] / (1.0 - 1e-9), ulps)
        elif edge == "free":
            caps[asn] = 2.0 * offered[asn] + 1.0
        else:
            caps[asn] = 0.0
    want = survival_oracle(sim, own)
    assert sim._survival_from_loads(own).tobytes() == want.tobytes()
    # each uplink alone one ulp either side of its load, every other one
    # free: the two sums of a subtree may differ in the last place, so
    # a shortcut without its margin would skip a clogged step here
    for asn in range(1, n_as):
        for ulps in (-1, 1):
            sim.scn.link_capacity = 2.0 * offered + 1.0
            sim.scn.link_capacity[asn] = nudged(offered[asn], ulps)
            want = survival_oracle(sim, own)
            assert sim._survival_from_loads(own).tobytes() == want.tobytes()


class Unwalkable:
    """Stands in for ``_levels``: fails if the level walk starts."""

    def __iter__(self):
        raise AssertionError("the level walk ran")

    def __reversed__(self):
        raise AssertionError("the level walk ran")


def test_survival_shortcut_takes_each_branch():
    rng = np.random.default_rng(5)
    parent = [0] + [int(rng.integers(0, asn)) for asn in range(1, 40)]
    origins = list(range(1, 40))
    own = np.concatenate(([0.0], rng.uniform(0.0, 1.0, size=39)))
    sim = make_sim(parent, origins, [False] * 39, [1.0] * 40)
    offered = unclogged_offered(sim, own)
    levels = sim._levels
    # every uplink well above its load: all ones, without walking
    sim.scn.link_capacity = 1.5 * offered + 1e-3
    sim._levels = Unwalkable()
    assert sim._survival_from_loads(own).tobytes() == np.ones(40).tobytes()
    # one uplink exactly at its load clogs nothing, but is inside the
    # margin: the walk decides, and still answers all ones
    busiest = int(np.argmax(offered[1:])) + 1
    sim.scn.link_capacity[busiest] = offered[busiest]
    with pytest.raises(AssertionError, match="level walk"):
        sim._survival_from_loads(own)
    sim._levels = levels
    assert sim._survival_from_loads(own).tobytes() == np.ones(40).tobytes()
    # one ulp less clogs it
    sim.scn.link_capacity[busiest] = nudged(offered[busiest], -1)
    got = sim._survival_from_loads(own)
    assert got.tobytes() == survival_oracle(sim, own).tobytes()
    assert got[busiest] < 1.0


# ----------------------------------------------------------------------
# flag-split reductions and per-flow admission of _admit_floc
# ----------------------------------------------------------------------
def admit_floc_oracle(sim, arrivals, arr_by_as):
    """The steady-state body of ``_admit_floc`` as it was before the
    per-AS tables and per-class bincounts: every per-flow quantity
    gathered through the per-flow group index, every flag-split
    reduction a full-length ``np.where`` mask.  Pure: returns what the
    method would have summed per AS, reported, stored and returned."""
    n_as = sim.scn.topology.n_as
    cap = sim.scn.target_capacity
    depth = np.asarray(sim.scn.topology.depth, dtype=np.float64)
    rtt = 2.0 * (depth[sim.origin] + 2.0)
    gidx_as = sim._group_of_as
    gidx = gidx_as[sim.origin]
    shares = sim._group_shares
    n_groups = sim.n_groups
    alloc = cap * shares / shares.sum()
    group_arrival = np.bincount(gidx_as, weights=arr_by_as, minlength=n_groups)
    group_flows = np.bincount(
        gidx_as,
        weights=sim._counts_by_as.astype(np.float64),
        minlength=n_groups,
    )
    fair = alloc / np.maximum(group_flows, 1.0)
    oversub = group_arrival > alloc * (1.0 + 1e-9)
    tcp_floor = 2.5 / rtt
    bar = np.maximum(sim.attack_flag_factor * fair[gidx], tcp_floor)
    previously_flagged = sim._flagged
    flagged = (sim._rate_ewma > bar) & oversub[gidx]
    capped = np.where(flagged, np.minimum(arrivals, fair[gidx]), arrivals)
    vectors = {
        "arr_unflagged": np.bincount(
            sim.origin,
            weights=np.where(flagged, 0.0, arrivals),
            minlength=n_as,
        ),
        "arr_flagged": np.bincount(
            sim.origin,
            weights=np.where(flagged, arrivals, 0.0),
            minlength=n_as,
        ),
        "capped_flagged": np.bincount(
            sim.origin,
            weights=np.where(flagged, capped, 0.0),
            minlength=n_as,
        ),
    }
    counts = {
        "newly": int(np.count_nonzero(flagged & ~previously_flagged)),
        "cleared": int(np.count_nonzero(previously_flagged & ~flagged)),
        "flagged": int(np.count_nonzero(flagged)),
    }
    arr_unflagged = vectors["arr_unflagged"]
    arr_flagged = vectors["arr_flagged"]
    capped_flagged = vectors["capped_flagged"]
    capped_by_as = arr_unflagged + capped_flagged
    group_demand = np.bincount(gidx_as, weights=capped_by_as, minlength=n_groups)
    scale = np.minimum(1.0, alloc / np.maximum(group_demand, 1e-12))
    scale_as = scale[gidx_as]
    admitted = capped * scale[gidx]
    admitted_total = float(np.sum(capped_by_as * scale_as))
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
        unmet = arrivals - admitted
        admitted = admitted + np.where(
            flagged, unmet * grant_flagged, unmet * grant_unflagged
        )
    total = (
        admitted_total
        + pool_unflagged * grant_unflagged
        + pool_flagged * grant_flagged
    )
    return admitted, flagged, vectors, counts, total


class RecordingSim(FluidSimulator):
    """Simulator that keeps the per-slot class sums ``_admit_floc`` built."""

    def _class_sums(self, *sets):
        self.class_sums = super()._class_sums(*sets)
        return self.class_sums


#: scenario shapes a free draw almost never produces; "free" is that draw
SHAPES = (
    "free",
    "none_flagged",
    "all_flagged",
    "attack_only_as",
    "single_flow",
    "starved_target",
)


@st.composite
def admit_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    parent = draw(trees(max_as=12))
    n_as = len(parent)
    n_flows = (
        1 if shape == "single_flow"
        else draw(st.integers(min_value=1, max_value=40))
    )
    origins = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=n_as - 1),
                min_size=n_flows, max_size=n_flows,
            )
        )
    )
    is_attack = draw(st.lists(st.booleans(), min_size=n_flows, max_size=n_flows))
    rate = st.sampled_from([0.0, 0.01, 0.2, 0.25, 0.5, 1.0, 2.0, 6.5])
    arrivals = draw(st.lists(rate, min_size=n_flows, max_size=n_flows))
    ewma = draw(st.lists(rate, min_size=n_flows, max_size=n_flows))
    previous = draw(st.lists(st.booleans(), min_size=n_flows, max_size=n_flows))
    target = draw(st.sampled_from([0.5, 2.0, 5.0, 40.0]))
    s_max = draw(st.sampled_from([None, 2, 4]))
    if shape == "none_flagged":
        ewma = [0.0] * n_flows
    elif shape == "all_flagged":
        # every group over-subscribed, every smoothed rate above any bar
        arrivals = [6.5] * n_flows
        ewma = [1e6] * n_flows
        target = 0.5
    elif shape == "attack_only_as":
        is_attack = [a or o == origins[0] for o, a in zip(origins, is_attack)]
    elif shape == "starved_target":
        target = 0.005  # below one flow's smallest non-zero rate
    return (
        shape, parent, origins, is_attack, arrivals, ewma, previous, target,
        s_max,
    )


@given(admit_cases())
@settings(max_examples=200, deadline=None)
def test_floc_admission_matches_masked_reductions(case):
    (
        shape, parent, origins, is_attack, arrivals, ewma, previous, target,
        s_max,
    ) = case
    n_as = len(parent)
    caps = [target] + [100.0] * (n_as - 1)
    sim = make_sim(
        parent, origins, is_attack, caps, cls=RecordingSim, s_max=s_max
    )
    # one class per flow: the per-flow arrays below are per-class state
    sim.split(np.arange(len(origins)))
    sim.begin_run(ticks=10, warmup=0)
    sim._rebuild_groups()
    # the flag counts are observable through telemetry only
    sim.telemetry = Telemetry(mode="trace")
    sim._rate_ewma = np.asarray(ewma, dtype=np.float64)
    sim._flagged = np.asarray(previous, dtype=bool)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    arr_by_as = np.bincount(sim.origin, weights=arrivals, minlength=n_as)
    want_admitted, want_flagged, want_vectors, want_counts, want_total = (
        admit_floc_oracle(sim, arrivals, arr_by_as)
    )
    kept = arrivals.copy()
    got = sim._admit_floc(arrivals, tick=1, arr_s=arr_by_as[sim._slot_as])
    assert arrivals.tobytes() == kept.tobytes()  # the argument is not scratch
    if shape == "none_flagged":
        assert not want_flagged.any()
    elif shape == "all_flagged":
        assert want_flagged.all()
    assert len(sim.class_sums) == len(want_vectors)
    for (name, want), got_slots in zip(want_vectors.items(), sim.class_sums):
        assert got_slots.shape == sim._slot_as.shape, name
        # spread over the ASes, zeros at the ASes without flows
        got_sum = np.zeros(n_as, dtype=got_slots.dtype)
        got_sum[sim._slot_as] = got_slots
        assert got_sum.dtype == np.float64, name
        assert got_sum.shape == (n_as,), name
        assert got_sum.tobytes() == want.tobytes(), name
    flag_events = [e.data for e in sim.telemetry.trace.events("fluid_flag")]
    if want_counts["newly"] or want_counts["cleared"]:
        assert flag_events == [
            {
                "newly_flagged": want_counts["newly"],
                "cleared": want_counts["cleared"],
                "flagged_total": want_counts["flagged"],
            }
        ]
    else:
        assert flag_events == []
    assert sim._flagged.tobytes() == want_flagged.tobytes()
    assert got.tobytes() == want_admitted.tobytes()
    assert repr(sim._admitted_total) == repr(want_total)

"""Property-based tests (hypothesis) on core data structures and models."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import cdf_at, empirical_cdf, percentile
from repro.core.aggregation import _depth_first, _flat_tree, build_plan
from repro.core.conformance import ConformanceTracker
from repro.core.tokenbucket import PathTokenBucket
from repro.tcp import model

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
positive = st.floats(min_value=0.01, max_value=1e4, allow_nan=False)
pid_strategy = st.lists(
    st.integers(min_value=1, max_value=30), min_size=1, max_size=6
).map(tuple)


class TestTcpModelProperties:
    @given(bw=positive, rtt=positive, n=st.floats(min_value=1, max_value=1e4))
    def test_token_period_and_bucket_consistent(self, bw, rtt, n):
        t = model.token_period(bw, rtt, n)
        assert t > 0
        assert model.bucket_size(bw, rtt, n) == bw * t

    @given(bw=positive, rtt=positive, n=st.floats(min_value=1, max_value=1e4))
    def test_increased_bucket_dominates_base(self, bw, rtt, n):
        assert model.increased_bucket_size(bw, rtt, n) > model.bucket_size(
            bw, rtt, n
        )

    @given(w=st.floats(min_value=0.1, max_value=1e5))
    def test_drop_ratio_inverse_roundtrip(self, w):
        gamma = model.drop_ratio(w)
        assert math.isclose(
            model.window_from_drop_ratio(gamma), w, rel_tol=1e-6
        )

    @given(w=st.floats(min_value=0.1, max_value=1e5))
    def test_drop_ratio_in_unit_interval(self, w):
        gamma = model.drop_ratio(w)
        assert 0.0 < gamma
        # gamma can exceed 1 only for sub-packet windows
        if w >= 2.0:
            assert gamma <= 1.0

    @given(
        bw=positive,
        rtt=st.floats(min_value=0.1, max_value=100),
        n=st.floats(min_value=1, max_value=1000),
    )
    def test_flow_count_estimator_roundtrip(self, bw, rtt, n):
        w = model.peak_window(bw, rtt, n)
        delta = model.drop_rate(bw, w)
        assert math.isclose(
            model.flows_from_drop_rate(bw, rtt, delta), n, rel_tol=1e-6
        )


class TestPathTreeProperties:
    @given(st.lists(pid_strategy, min_size=1, max_size=30, unique=True))
    def test_tree_preserves_all_paths(self, pids):
        """The depth-first order of the traffic tree lists every path
        exactly once, and a node's slice of it holds exactly the paths
        through the node."""
        kids, depth, leaves, own, first = _flat_tree(pids)
        order, start = _depth_first(kids, leaves, own)
        assert sorted(order) == sorted(pids)
        for node in range(len(kids)):
            suffix = first[node][len(first[node]) - depth[node]:]
            under = order[start[node] : start[node] + leaves[node]]
            assert sorted(under) == sorted(
                p for p in pids if p[len(p) - len(suffix):] == suffix
            )


class TestTokenBucketProperties:
    @given(
        bw=st.floats(min_value=0.1, max_value=100),
        rtt=st.floats(min_value=1, max_value=100),
        n=st.integers(min_value=1, max_value=500),
    )
    def test_grants_never_exceed_size_per_period(self, bw, rtt, n):
        bucket = PathTokenBucket(bw, rtt, n, now=0)
        granted = sum(1 for _ in range(100_000) if bucket.request())
        assert granted <= bucket.size

    @given(
        bw=st.floats(min_value=0.1, max_value=50),
        rtt=st.floats(min_value=1, max_value=50),
        n=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_run_rate_bounded_by_bandwidth(self, bw, rtt, n):
        bucket = PathTokenBucket(bw, rtt, n, now=0)
        bucket.use_increased = False
        granted = 0
        horizon = min(5_000, 50 * bucket.period)
        horizon = max(horizon, bucket.period)
        for tick in range(1, horizon + 1):
            bucket.on_tick(tick)
            while bucket.request():
                granted += 1
        # the bucket admits at most its size per period (the size is
        # clamped to >= 1 token, so sub-packet rates round up to one
        # packet per period)
        n_periods = horizon / bucket.period
        assert granted <= (n_periods + 2) * bucket.base_size


class TestConformanceProperties:
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ).filter(lambda t: t[1] <= t[0]),
            min_size=1,
            max_size=50,
        )
    )
    def test_conformance_stays_in_unit_interval(self, updates):
        tracker = ConformanceTracker(beta=0.2)
        for n, n_attack in updates:
            value = tracker.update((1,), n, n_attack)
            assert 0.0 <= value <= 1.0


class TestAggregationProperties:
    @given(
        legit=st.lists(pid_strategy, min_size=0, max_size=15, unique=True),
        attack=st.lists(pid_strategy, min_size=0, max_size=15, unique=True),
        s_max=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60)
    def test_plan_is_a_partition(self, legit, attack, s_max):
        attack = [p for p in attack if p not in set(legit)]
        conf = {p: 1.0 for p in legit}
        conf.update({p: 0.1 for p in attack})
        counts = {p: 10.0 for p in legit + attack}
        plan = build_plan(legit, attack, conf, counts, s_max)
        # every path belongs to exactly one group
        seen = []
        for members in plan.members.values():
            seen.extend(members)
        assert sorted(seen) == sorted(legit + attack)
        # shares are positive and groups non-empty
        assert all(s > 0 for s in plan.shares.values())
        assert all(plan.members[k] for k in plan.members)

    @given(
        attack=st.lists(pid_strategy, min_size=2, max_size=20, unique=True),
        s_max=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60)
    def test_attack_identifier_budget_respected(self, attack, s_max):
        conf = {p: 0.1 for p in attack}
        counts = {p: 5.0 for p in attack}
        plan = build_plan([], attack, conf, counts, s_max)
        budget = max(1, s_max)
        assert plan.n_groups <= max(budget, 1) or plan.n_groups <= len(attack)


class TestCdfProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_cdf_reaches_one(self, values):
        points = empirical_cdf(values)
        assert points[-1][1] == 1.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_cdf_at_matches_definition(self, values, x):
        frac = cdf_at(values, x)
        assert frac == sum(1 for v in values if v <= x) / len(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_percentile_bounds(self, values):
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 1.0) == max(values)

"""Attack-path aggregation (Algorithm 1) and legitimate-path aggregation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AggregationPlan,
    _depth_first,
    _flat_tree,
    aggregate_attack_paths,
    aggregate_legitimate_paths,
    build_plan,
)
from repro.errors import ConfigError

from . import aggregation_oracle

ROOT_AS = 99


def pid(origin, parent):
    """Origin -> parent -> root path id."""
    return (origin, parent, ROOT_AS)


class TestAttackAggregation:
    def test_no_aggregation_when_within_budget(self):
        pids = [pid(1, 10), pid(2, 10)]
        groups = aggregate_attack_paths(pids, {}, n_legit_paths=5, s_max=10)
        assert groups == []

    def test_reduces_identifier_count_to_budget(self):
        # 6 attack paths behind two parents; budget allows 2 identifiers
        pids = [pid(i, 10) for i in range(3)] + [pid(i, 11) for i in range(3, 6)]
        conf = {p: 0.2 for p in pids}
        groups = aggregate_attack_paths(pids, conf, n_legit_paths=8, s_max=10)
        merged = sum(len(m) for _, m in groups)
        remaining = len(pids) - merged + len(groups)
        assert remaining <= 10 - 8

    def test_prefers_low_conformance_subtree(self):
        # parent 10's children are dirtier: it should aggregate first
        dirty = [pid(i, 10) for i in range(3)]
        cleaner = [pid(i, 11) for i in range(3, 6)]
        conf = {p: 0.1 for p in dirty}
        conf.update({p: 0.45 for p in cleaner})
        groups = aggregate_attack_paths(
            dirty + cleaner, conf, n_legit_paths=0, s_max=4
        )
        suffixes = [s for s, _ in groups]
        assert (10, ROOT_AS) in suffixes

    def test_fallback_merges_everything(self):
        # budget of 1 identifier for 6 paths across distinct parents
        pids = [pid(i, 10 + i) for i in range(6)]
        conf = {p: 0.3 for p in pids}
        groups = aggregate_attack_paths(pids, conf, n_legit_paths=10, s_max=11)
        assert len(groups) == 1
        assert sorted(groups[0][1]) == sorted(pids)

    def test_invalid_s_max(self):
        with pytest.raises(ConfigError):
            aggregate_attack_paths([pid(1, 2)], {}, 0, s_max=0)

    def test_groups_are_disjoint(self):
        pids = [pid(i, 10) for i in range(4)] + [pid(i, 11) for i in range(4, 8)]
        conf = {p: 0.2 for p in pids}
        groups = aggregate_attack_paths(pids, conf, n_legit_paths=0, s_max=3)
        seen = set()
        for _, members in groups:
            for m in members:
                assert m not in seen
                seen.add(m)


class TestLegitimateAggregation:

    def test_equal_conformance_merges_proportionally(self):
        # the Fig. 9 case: same conformance, different populations
        pids = [pid(i, 10 + i // 3) for i in range(9)]
        conf = {p: 1.0 for p in pids}
        counts = {p: (15 if i % 2 == 0 else 30) for i, p in enumerate(pids)}
        groups = aggregate_legitimate_paths(pids, conf, counts)
        assert sum(len(m) for _, m in groups) == 9

    def test_covert_guard_vetoes_huge_population(self):
        pids = [pid(i, 10) for i in range(4)]
        conf = {p: 1.0 for p in pids}
        counts = {p: 30.0 for p in pids}
        counts[pids[0]] = 100_000.0  # covert path: enormous flow count
        groups = aggregate_legitimate_paths(pids, conf, counts)
        for _, members in groups:
            assert pids[0] not in members

    def test_single_path_no_groups(self):
        assert aggregate_legitimate_paths([pid(1, 2)], {}, {}) == []

    def test_conformance_weighting_blocks_bad_merge(self):
        # merging would shift weight to a low-conformance populous path
        pids = [pid(1, 10), pid(2, 10)]
        conf = {pids[0]: 1.0, pids[1]: 0.6}
        counts = {pids[0]: 10.0, pids[1]: 100.0}
        # weighted mean < plain mean -> cost > 0 -> no merge
        mean = sum(conf[p] for p in pids) / len(pids)
        weighted = sum(conf[p] * counts[p] for p in pids) / sum(counts.values())
        assert mean - weighted > 0
        assert aggregate_legitimate_paths(pids, conf, counts) == []


@st.composite
def route_tree(draw):
    """A route tree: the path of each of its 2 to 30 ASes, AS 0 the
    router's."""
    n_as = draw(st.integers(min_value=2, max_value=30))
    parent = [0] + [
        draw(st.integers(min_value=0, max_value=asn - 1))
        for asn in range(1, n_as)
    ]
    paths = {0: (0,)}
    for asn in range(1, n_as):
        paths[asn] = (asn,) + paths[parent[asn]]
    return paths


@st.composite
def legit_cases(draw):
    """A route tree, the paths of some of its ASes (inner ones too, so a
    node can hold a leaf and children), their conformance and flow
    counts (zeros, a covert-sized count, some missing), a cap and a
    tolerance."""
    paths = draw(route_tree())
    ases = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(paths) - 1),
            min_size=0, max_size=len(paths),
        )
    )
    pids = [paths[asn] for asn in ases]
    conformance = st.one_of(
        st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.98, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    )
    flows = st.one_of(
        st.sampled_from([0.0, 0.0, 1.0, 3.0, 15.0, 30.0, 100_000.0]),
        st.floats(min_value=0.0, max_value=500.0),
    )
    conf = {p: draw(conformance) for p in pids if draw(st.booleans())}
    counts = {p: draw(flows) for p in pids if draw(st.integers(0, 5))}
    cap = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]))
    tolerance = draw(st.sampled_from([0.0, 0.02, 0.1, 1.0]))
    return pids, conf, counts, cap, tolerance


#: Three paths under one node whose merge sits exactly on both
#: thresholds under the builtin ``sum`` of Python 3.11 and earlier (which
#: adds left to right, rounding each time): the largest per-flow growth
#: ``after / before`` equals ``1 + cap``, and the Eq. (IV.8) cost equals
#: the tolerance.  ``math.fsum`` rounds the flow total, the conformance
#: sum and the weighted sum differently, so swapping any one of the three
#: for it moves a value off its threshold and changes the groups.
KNIFE_EDGE = (
    [(1, 50, 99), (2, 50, 99), (3, 50, 99)],
    {(1, 50, 99): 0.35, (2, 50, 99): 0.3, (3, 50, 99): 0.2},
    {(1, 50, 99): 1.1, (2, 50, 99): 3.3, (3, 50, 99): 1.7},
    0.622950819672131,
    0.0021857923497267118,
)


@given(legit_cases())
@example(KNIFE_EDGE)
@settings(max_examples=300, deadline=None)
def test_legitimate_aggregation_matches_oracle(case):
    """Skipping try_merge at pass-through nodes whose units already failed
    below, the one-filter exclusion rounds and the flat traffic tree
    change no plan."""
    pids, conf, counts, cap, tolerance = case
    want = aggregation_oracle.aggregate_legitimate_paths(
        pids, conf, counts, cap, cost_tolerance=tolerance
    )
    got = aggregate_legitimate_paths(
        pids, conf, counts, cap, cost_tolerance=tolerance
    )
    assert got == want


@st.composite
def attack_cases(draw):
    """A route tree whose ASes each send an attack path with probability
    7/8 (``k`` paths), their conformance (mostly below 0.5, as a
    convicted path's is, some missing, some +-1e16 so that the order of
    a cost's float sum shows), ``n_legit_paths`` in 0..k and ``s_max``
    in 1..k+3: budgets from 1 to above ``k``, where Algorithm 1's greedy
    loop takes several nodes and its step 2 runs."""
    paths = draw(route_tree())
    pids = [path for path in paths.values() if draw(st.integers(0, 7))]
    conformance = st.one_of(
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45, 1e16, -1e16]),
        st.floats(min_value=0.0, max_value=0.5),
    )
    conf = {p: draw(conformance) for p in pids if draw(st.integers(0, 7))}
    n_legit_paths = draw(st.integers(min_value=0, max_value=len(pids)))
    s_max = draw(st.integers(min_value=1, max_value=len(pids) + 3))
    return pids, conf, n_legit_paths, s_max


#: Two cheap sibling subtrees (10 and 11 under AS 50) and two clean
#: paths beside them.  A budget of 4 identifiers for 6 paths needs both
#: subtrees; their costs sum to 0.6, and AS 50 (cost 3.2 / 6) costs
#: more than either but less than the sum, so Algorithm 1's step 2
#: replaces the pair with it.
STEP_TWO_CHALLENGER = (
    [
        (1, 10, 50, 99), (2, 10, 50, 99), (3, 11, 50, 99),
        (4, 11, 50, 99), (5, 50, 99), (6, 50, 99),
    ],
    {
        (1, 10, 50, 99): 0.3, (2, 10, 50, 99): 0.3,
        (3, 11, 50, 99): 0.3, (4, 11, 50, 99): 0.3,
    },
    0,
    4,
)
#: The same tree with dirtier subtrees: AS 50 (cost 2.8 / 6) costs more
#: than the pair (0.4), so the solution keeps both nodes.
TWO_NODE_SOLUTION = (
    STEP_TWO_CHALLENGER[0],
    {p: 0.2 for p in STEP_TWO_CHALLENGER[1]},
    0,
    4,
)


def test_step_two_replaces_the_pair_and_keeps_it_otherwise():
    """``STEP_TWO_CHALLENGER`` and ``TWO_NODE_SOLUTION`` end as their
    comments say, so the oracle test's examples run both outcomes of
    step 2."""
    paths = STEP_TWO_CHALLENGER[0]
    assert aggregate_attack_paths(*STEP_TWO_CHALLENGER) == [((50, 99), paths)]
    assert aggregate_attack_paths(*TWO_NODE_SOLUTION) == [
        ((10, 50, 99), paths[0:2]),
        ((11, 50, 99), paths[2:4]),
    ]


@given(attack_cases())
@example(STEP_TWO_CHALLENGER)
@example(TWO_NODE_SOLUTION)
@settings(max_examples=300, deadline=None)
def test_attack_aggregation_matches_oracle(case):
    """Algorithm 1 picks the oracle's nodes in the oracle's order, with
    the members in the same order, at every budget: candidate order,
    the (cost, -depth) sort, the overlap test, step 2 and the fallback."""
    pids, conf, n_legit_paths, s_max = case
    want = aggregation_oracle.aggregate_attack_paths(
        pids, conf, n_legit_paths, s_max
    )
    assert aggregate_attack_paths(pids, conf, n_legit_paths, s_max) == want


@st.composite
def plan_cases(draw):
    """A ``legit_cases`` draw plus an attack set over the same route tree
    (overlapping the legitimate paths or not), an ``s_max`` and whether
    legitimate aggregation runs."""
    pids, conf, counts, cap, tolerance = draw(legit_cases())
    extra = draw(
        st.lists(st.sampled_from(pids), max_size=len(pids) // 2)
        if pids else st.just([])
    )
    attack = [p for p in pids if not draw(st.integers(0, 3))] + extra
    s_max = draw(st.sampled_from([None, 1, 2, 3, 5]))
    legitimate_aggregation = draw(st.sampled_from([True, True, False]))
    return (
        pids, attack, conf, counts, cap, tolerance, s_max,
        legitimate_aggregation,
    )


def tree_shape(tree):
    """The oracle tree's nodes, the root first and then in ``nodes()``
    order: each node's suffix, its children in their insertion order, the
    path that ends at it, and every path below or at it in
    ``descend_leaves`` order."""
    return [
        (
            node.suffix, list(node.children), list(node.leaf_pids),
            node.descend_leaves(),
        )
        for node in [tree.root, *tree.nodes()]
    ]


def flat_shape(paths):
    """``tree_shape`` of ``_flat_tree``, its paths under a node read off
    the ``_depth_first`` order."""
    kids, depth, leaves, own, first = _flat_tree(paths)
    order, start = _depth_first(kids, leaves, own)
    return [
        (
            first[n][len(first[n]) - depth[n] :], list(kids[n]),
            [] if own[n] is None else [own[n]],
            order[start[n] : start[n] + leaves[n]],
        )
        for n in range(len(kids))
    ]


@given(plan_cases())
@settings(max_examples=300, deadline=None)
def test_plan_and_tree_match_oracle(case):
    """The traffic tree and the whole plan (Algorithm 1, Eq. IV.8 and
    the singletons) are the oracle's: same groups with members in the
    same order, same shares, same node order.  Both aggregations walk
    ``_flat_tree``, and Algorithm 1 breaks cost ties by its node order,
    so the tree must list the oracle's nodes, children and paths in the
    oracle's order."""
    (
        pids, attack, conf, counts, cap, tolerance, s_max,
        legitimate_aggregation,
    ) = case
    for paths in (pids, attack, pids + attack):
        paths = list(dict.fromkeys(paths))
        assert flat_shape(paths) == tree_shape(
            aggregation_oracle.PathTree(paths)
        )
    kwargs = dict(
        bandwidth_increase_cap=cap,
        legitimate_aggregation=legitimate_aggregation,
        cost_tolerance=tolerance,
    )
    want = aggregation_oracle.build_plan(
        pids, attack, conf, counts, s_max, **kwargs
    )
    got = build_plan(pids, attack, conf, counts, s_max, **kwargs)
    assert list(got.group_of.items()) == list(want.group_of.items())
    assert list(got.members.items()) == list(want.members.items())
    assert list(got.shares.items()) == list(want.shares.items())
    assert got.n_groups == want.n_groups
    assert (got.s_max, got.n_legit_inputs) == (want.s_max, want.n_legit_inputs)
    if s_max is not None and attack:
        assert aggregate_attack_paths(
            attack, conf, len(pids), s_max
        ) == aggregation_oracle.aggregate_attack_paths(
            attack, conf, len(pids), s_max
        )


def test_empty_pid_rejected():
    """Both aggregations build the traffic tree, which refuses an
    empty path identifier."""
    paths = [pid(1, 10), ()]
    with pytest.raises(ConfigError, match="empty path identifier"):
        aggregate_attack_paths(paths, {}, n_legit_paths=0, s_max=1)
    with pytest.raises(ConfigError, match="empty path identifier"):
        aggregate_legitimate_paths(paths, {}, {})


class TestBuildPlan:
    def test_identity_plan(self):
        plan = AggregationPlan()
        for p in (pid(1, 2), pid(3, 4)):
            plan.add_group(p, [p], 1.0)
        assert plan.n_groups == 2
        assert sum(plan.shares.values()) == 2.0
        assert plan.group(pid(1, 2)) == pid(1, 2)

    def test_plan_share_semantics(self):
        legit = [pid(i, 10) for i in range(3)]
        attack = [pid(i, 20) for i in range(5, 9)]
        conf = {p: 1.0 for p in legit}
        conf.update({p: 0.1 for p in attack})
        counts = {p: 10.0 for p in legit + attack}
        plan = build_plan(legit, attack, conf, counts, s_max=4)
        # attack groups hold one share each; legit merged group holds one
        # share per member
        aggregated = [k for k, v in plan.members.items() if len(v) > 1]
        for key in aggregated:
            if key[0] == "AGG-A":
                assert plan.shares[key] == 1.0
            else:
                assert plan.shares[key] == float(len(plan.members[key]))

    def test_plan_covers_every_path(self):
        legit = [pid(i, 10) for i in range(3)]
        attack = [pid(i, 20) for i in range(5, 9)]
        conf = {p: 0.1 for p in attack}
        counts = {p: 10.0 for p in legit + attack}
        plan = build_plan(legit, attack, conf, counts, s_max=5)
        for p in legit + attack:
            assert plan.group(p) in plan.members

    def test_no_s_max_skips_attack_aggregation(self):
        attack = [pid(i, 20) for i in range(4)]
        conf = {p: 0.1 for p in attack}
        plan = build_plan([], attack, conf, {p: 5.0 for p in attack}, s_max=None)
        assert plan.n_groups == 4

"""Skitter-like route-tree generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.inet.skitter import VARIANTS, generate_route_tree

from . import skitter_oracle


class TestGeneration:
    def test_tree_rooted_at_zero(self):
        topo = generate_route_tree(n_as=100)
        assert topo.parent[0] == 0
        assert topo.depth[0] == 0

    def test_every_as_reaches_root(self):
        topo = generate_route_tree(n_as=200)
        for asn in range(200):
            path = topo.path_of(asn)
            assert path[0] == asn
            assert path[-1] == 0

    def test_paths_match_parents(self):
        topo = generate_route_tree(n_as=50)
        for asn in range(1, 50):
            path = topo.path_of(asn)
            assert path[1] == topo.parent[asn]

    def test_depth_capped(self):
        for variant, params in VARIANTS.items():
            topo = generate_route_tree(n_as=400, variant=variant)
            assert max(topo.depth) <= params["max_depth"] + 1

    def test_deterministic_per_variant(self):
        a = generate_route_tree(n_as=100, variant="f-root")
        b = generate_route_tree(n_as=100, variant="f-root")
        assert a.parent == b.parent

    def test_variants_differ(self):
        a = generate_route_tree(n_as=100, variant="f-root")
        b = generate_route_tree(n_as=100, variant="jpn")
        assert a.parent != b.parent

    def test_heavy_tailed_degrees(self):
        topo = generate_route_tree(n_as=500)
        children = topo.children_of()
        degrees = sorted((len(c) for c in children.values()), reverse=True)
        # preferential attachment: the biggest hub dwarfs the median
        assert degrees[0] >= 5 * max(1, degrees[len(degrees) // 2])

    def test_depth_histogram_counts_all(self):
        topo = generate_route_tree(n_as=300)
        assert sum(topo.depth_histogram().values()) == 300

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            generate_route_tree(n_as=1)
        with pytest.raises(ConfigError):
            generate_route_tree(n_as=10, variant="marsnet")


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    n_as=st.integers(min_value=2, max_value=2500),
    seed=st.none() | st.integers(min_value=-(2**63), max_value=2**63),
)
def test_prefix_scan_matches_linear_scan_oracle(variant, n_as, seed):
    """The incremental weights and prefix scan pick every parent the old
    recompute-and-scan generator picked."""
    got = generate_route_tree(n_as=n_as, variant=variant, seed=seed)
    want = skitter_oracle.generate_route_tree(n_as=n_as, variant=variant, seed=seed)
    assert got.parent == want.parent
    assert got.depth == want.depth
    assert got.paths == want.paths

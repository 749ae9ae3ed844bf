"""Internet-scale scenario assembly."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.inet.scenarios import build_internet_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_internet_scenario(
        n_as=200, n_legit_sources=500, n_legit_ases=50, n_bots=3_000,
        target_capacity=300.0, seed=11,
    )


class TestAssembly:
    def test_flow_counts(self, scenario):
        assert scenario.n_flows == 3_500
        assert int(scenario.flow_is_attack.sum()) == 3_000

    def test_flow_paths_end_at_target_link(self, scenario):
        for links in scenario.flow_links[:100]:
            assert links[-1] == 0  # link 0 is the target link

    def test_flow_paths_follow_parents(self, scenario):
        topo = scenario.topology
        for flow in range(0, scenario.n_flows, 500):
            links = scenario.flow_links[flow]
            assert links[0] == scenario.flow_origin_as[flow]
            for a, b in zip(links, links[1:]):
                if b != 0:
                    assert topo.parent[int(a)] == int(b)

    def test_target_capacity_applied(self, scenario):
        assert scenario.link_capacity[0] == 300.0

    def test_interior_links_provisioned_per_subscriber(self, scenario):
        # a leaf AS with hosts must have capacity >= headroom * hosts
        origins, counts = np.unique(
            scenario.flow_origin_as, return_counts=True
        )
        for asn, hosts in zip(origins[:20], counts[:20]):
            if asn == 0:
                continue
            assert scenario.link_capacity[asn] >= hosts  # headroom >= 1

    def test_categories_partition_flows(self, scenario):
        cats = scenario.categories()
        assert set(np.unique(cats)) <= {0, 1, 2}
        assert (cats == 2).sum() == 3_000

    def test_localized_overlap_places_legit_in_attack_ases(self, scenario):
        cats = scenario.categories()
        legit_in_attack = int((cats == 1).sum())
        assert legit_in_attack == pytest.approx(150, rel=0.25)

    def test_separated_has_little_overlap(self):
        sep = build_internet_scenario(
            n_as=200, n_legit_sources=500, n_legit_ases=50, n_bots=3_000,
            placement="separated", seed=11,
        )
        cats = sep.categories()
        # separated placement avoids attack ASes entirely
        assert (cats == 1).sum() == 0

    def test_dispersed_uses_more_attack_ases(self):
        loc = build_internet_scenario(n_as=400, placement="localized",
                                      n_bots=2000, n_legit_sources=400, seed=3)
        dis = build_internet_scenario(n_as=400, placement="dispersed",
                                      n_bots=2000, n_legit_sources=400, seed=3)
        assert len(dis.attack_ases) > len(loc.attack_ases)

    def test_invalid_placement(self):
        with pytest.raises(ConfigError):
            build_internet_scenario(placement="everywhere")

    # unchecked, a zero target capacity divided by zero inside the fluid
    # run, a negative one ran and reported a legitimate share above 1, a
    # zero legitimate rate gave every uplink capacity 0 ("no limit"), and
    # a NaN headroom would give every uplink a NaN capacity
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_capacity": 0.0},
            {"target_capacity": -5.0},
            {"target_capacity": float("nan")},
            {"target_capacity": float("inf")},
            {"legit_rate": 0.0},
            {"legit_rate": -1.0},
            {"legit_rate": float("nan")},
            {"legit_rate": float("inf")},
            {"headroom": 0.0},
            {"headroom": float("nan")},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_degenerate_rates_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ConfigError, match=name):
            build_internet_scenario(n_as=120, seed=3, **kwargs)

    def test_path_id_matches_topology(self, scenario):
        pid = scenario.topology.path_of(int(scenario.flow_origin_as[0]))
        assert pid[0] == scenario.flow_origin_as[0]
        assert pid[-1] == 0

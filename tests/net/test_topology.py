"""Topology construction and routing."""

import pytest

from repro.errors import TopologyError
from repro.net.topology import Topology


@pytest.fixture
def diamond():
    """a -> {b, c} -> d diamond."""
    topo = Topology()
    topo.add_link("a", "b")
    topo.add_link("a", "c")
    topo.add_link("b", "d")
    topo.add_link("c", "d")
    return topo


class TestConstruction:
    def test_add_link_returns_link(self):
        topo = Topology()
        link = topo.add_link("x", "y", capacity=5.0, buffer=10)
        assert link.ends == ("x", "y")
        assert link.capacity == 5.0
        assert link.buffer == 10

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_link("x", "x")

    def test_duplex_reverse_defaults_unbounded(self):
        topo = Topology()
        fwd, rev = topo.add_duplex_link("a", "b", capacity=3.0, buffer=7)
        assert fwd.capacity == 3.0
        assert rev.capacity is None
        assert rev.buffer is None

    def test_replacing_link_keeps_adjacency_unique(self):
        topo = Topology()
        topo.add_link("a", "b", capacity=1.0)
        topo.add_link("a", "b", capacity=2.0)
        assert topo.link("a", "b").capacity == 2.0
        assert topo.predecessors("b") == ["a"]

    def test_predecessors(self, diamond):
        assert sorted(diamond.predecessors("d")) == ["b", "c"]

    def test_missing_link_raises(self):
        topo = Topology()
        topo.add_link("a", "b")
        with pytest.raises(TopologyError):
            topo.link("b", "a")

    def test_has_link(self, diamond):
        assert diamond.has_link("a", "b")
        assert not diamond.has_link("b", "a")


class TestRouting:
    def test_shortest_route_direct(self, diamond):
        route = diamond.shortest_route("a", "d")
        assert route[0] == "a" and route[-1] == "d" and len(route) == 3

    def test_shortest_route_trivial(self, diamond):
        assert diamond.shortest_route("a", "a") == ["a"]

    def test_no_route_raises(self, diamond):
        with pytest.raises(TopologyError):
            diamond.shortest_route("d", "a")  # directed: no way back

    def test_unknown_source_raises(self, diamond):
        with pytest.raises(TopologyError):
            diamond.shortest_route("zzz", "d")

    def test_validate_route_accepts_valid(self, diamond):
        diamond.validate_route(["a", "b", "d"])

    def test_validate_route_rejects_missing_hop(self, diamond):
        with pytest.raises(TopologyError):
            diamond.validate_route(["a", "d"])

    def test_validate_route_rejects_single_node(self, diamond):
        with pytest.raises(TopologyError):
            diamond.validate_route(["a"])

    def test_longer_chain(self):
        topo = Topology()
        for i in range(10):
            topo.add_link(i, i + 1)
        assert topo.shortest_route(0, 10) == list(range(11))

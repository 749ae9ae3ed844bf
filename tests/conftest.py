"""Shared fixtures for the test suite.

Simulation-backed tests run at small scale (a few dozen flows, a few
simulated seconds); the paper's figures, at the scale EXPERIMENTS.md
quotes, live in ``tests/paper/``.
"""

from __future__ import annotations

import pytest

from repro.net.engine import Engine
from repro.net.topology import Topology
from repro.traffic.scenarios import build_tree_scenario
from repro.units import UnitScale


@pytest.fixture
def units() -> UnitScale:
    return UnitScale(tick_seconds=0.010)


@pytest.fixture
def dumbbell():
    """A host -> r1 -> r2 -> server dumbbell with a 10 pkt/tick bottleneck.

    Returns (engine, topology).  The bottleneck is r1 -> r2 with a 50
    packet buffer; everything else is unbounded.
    """
    topo = Topology()
    topo.add_duplex_link("h0", "r1", capacity=None)
    topo.add_duplex_link("h1", "r1", capacity=None)
    topo.add_duplex_link("r1", "r2", capacity=10.0, buffer=50)
    topo.add_duplex_link("r2", "srv", capacity=None)
    engine = Engine(topo, seed=42)
    return engine, topo


@pytest.fixture
def small_tree():
    """A scaled-down Section VI tree scenario with CBR attackers."""
    return build_tree_scenario(
        scale_factor=0.05,
        attack_kind="cbr",
        attack_rate_mbps=2.0,
        seed=3,
        start_spread_seconds=0.5,
    )


@pytest.fixture
def no_attack_tree():
    """A scaled-down tree scenario with only legitimate TCP flows."""
    return build_tree_scenario(
        scale_factor=0.05,
        attack_kind="none",
        seed=3,
        start_spread_seconds=0.5,
    )

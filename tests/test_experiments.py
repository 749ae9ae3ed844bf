"""Experiment runners produce well-formed, shape-correct results.

These run at very small scale — the full-figure reproductions with the
paper's shape assertions are in ``tests/paper/``.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.common import (
    SCHEMES,
    FunctionalSettings,
    make_policy,
    run_breakdown,
)
from repro.experiments.fig02 import run_fig02
from repro.experiments.fig03 import run_fig03
from repro.experiments.fig04 import run_fig04
from repro.experiments.fig11 import run_fig11, topology_stats
from repro.inet.scenarios import build_internet_scenario
from repro.traffic.scenarios import build_tree_scenario

TINY = FunctionalSettings(scale=0.05, warmup_seconds=2.0, measure_seconds=3.0,
                          seed=9)


class TestCommon:
    def test_every_scheme_instantiates(self):
        for scheme in SCHEMES:
            assert make_policy(scheme, TINY) is not None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("tarpit", TINY)

    def test_run_breakdown_fields(self):
        scenario = build_tree_scenario(
            scale_factor=TINY.scale, attack_kind="cbr", seed=9
        )
        result = run_breakdown(scenario, "droptail", TINY)
        assert result.scheme == "droptail"
        assert 0.0 <= result.breakdown.utilization <= 1.01
        assert len(result.legit_in_legit_rates) == sum(
            1
            for f in scenario.legit_flows
            if f.path_id not in set(scenario.attack_path_ids)
        )


class TestSimpleRunners:
    def test_fig02_rows_cover_measure_window(self):
        result = run_fig02(TINY)
        assert len(result.rows) == int(TINY.measure_seconds)
        assert result.service_total > 0

    def test_fig03_result_complete(self):
        result = run_fig03(n_samples=2_000, seed=2)
        assert result.n_samples == 2_000
        assert abs(result.cdf[-1][1] - 1.0) < 1e-9

    def test_fig04_deterministic(self):
        a = run_fig04(n_flows=10, steps=100, seed=3)
        b = run_fig04(n_flows=10, steps=100, seed=3)
        assert a.utilization_partial == b.utilization_partial

    def test_fig04_bad_mode_rejected(self):
        from repro.experiments.fig04 import aggregate_request_series

        with pytest.raises(ValueError):
            aggregate_request_series(5, 10.0, 20, "psychic", 10)


class TestInternetRunners:
    def test_fig11_stats_consistent(self):
        stats = run_fig11(
            "localized", variants=("f-root",), n_as=200,
            n_legit_sources=300, n_bots=2_000, n_legit_ases=40,
        )
        s = stats[0]
        assert s.n_bots == 2_000
        assert s.n_legit_sources == 300
        assert sum(s.depth_histogram.values()) == s.n_as
        assert 0 < s.red_links <= s.total_links

    def test_topology_stats_from_scenario(self):
        scenario = build_internet_scenario(
            n_as=150, n_legit_sources=200, n_bots=1_000, n_legit_ases=30,
            seed=5,
        )
        s = topology_stats(scenario)
        assert s.placement == "localized"
        assert 0.0 <= s.legit_in_attack_as_fraction <= 1.0

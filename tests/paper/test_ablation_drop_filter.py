"""Ablation: exact per-flow drop tracking vs the scalable Bloom filter.

Section V-B's claim: the approximate drop-record filter (with
probabilistic updates) defends nearly as well as exact tracking while
touching memory far less often — the property that lets FLoc run on
backbone routers.
"""

from repro.analysis.report import format_table
from repro.core.config import FLocConfig
from repro.core.dropfilter import DropRecordFilter
from repro.experiments.common import run_breakdown
from repro.traffic.scenarios import build_tree_scenario

from . import SETTINGS


def test_ablation_drop_filter():
    results = {}
    for label, use_filter in (("exact", False), ("bloom", True)):
        scenario = build_tree_scenario(
            scale_factor=SETTINGS.scale,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=SETTINGS.seed,
        )
        cfg = FLocConfig(use_drop_filter=use_filter)
        results[label] = run_breakdown(scenario, "floc", SETTINGS, cfg)
    rows = []
    for label, result in results.items():
        b = result.breakdown
        policy = result.extra["policy"]
        if policy.drop_filter is not None:
            updates = policy.drop_filter.memory_updates
            drops = policy.drop_filter.drops_seen
        else:
            updates = sum(policy.drop_stats.values())
            drops = updates
        rows.append([label, b.legit_total, b.attack, drops, updates])
    print(
        format_table(
            ["tracker", "legit total", "attack", "drops seen",
             "memory updates"],
            rows,
            title="ABLATION: exact tracker vs Bloom drop filter",
        )
    )

    exact = results["exact"].breakdown
    bloom = results["bloom"].breakdown
    # the approximate filter keeps most of the defense (the paper trades
    # a little precision for O(1) memory per drop at backbone speed)
    assert bloom.legit_total > 0.7 * exact.legit_total
    # probabilistic updates write memory less often than drops occur
    policy = results["bloom"].extra["policy"]
    assert (
        policy.drop_filter.memory_updates
        < policy.drop_filter.drops_seen * policy.drop_filter.m
    )


def test_filter_false_positive_budget():
    """The paper's dimensioning numbers for the drop filter."""
    numbers = {
        "fp_0.5M": DropRecordFilter.false_positive_ratio(0.5e6, 4, 24),
        "fp_4M_with_selection": DropRecordFilter.false_positive_with_selection(
            4e6, 3.5e6, k=1, m=4, bits=24
        ),
        "memory_mb": DropRecordFilter.payload_bytes(4, 24) / 2**20,
    }
    print(
        format_table(
            ["quantity", "value"],
            [[k, f"{v:.3g}"] for k, v in numbers.items()],
            title="ABLATION: filter dimensioning (paper Section V-B.5)",
        )
    )
    # paper: 0.5M flows -> 7.4e-7; 4M attack flows with array selection
    # stays ~1e-5; four 2^24-entry arrays cost ~128-ish MB
    assert numbers["fp_0.5M"] < 1e-6
    assert numbers["fp_4M_with_selection"] < 1e-4
    assert 100 < numbers["memory_mb"] < 400

"""Roundup bench: every implemented defense against the same CBR flood.

Not a paper figure per se — this is the "who should I deploy" table a
release needs, covering the two related-work baselines the paper only
discusses (CDF-PSP) alongside the evaluated ones.
"""

from repro.analysis.fairness import jain_index
from repro.analysis.report import format_table
from repro.experiments.common import run_breakdown
from repro.traffic.scenarios import build_tree_scenario

from . import SETTINGS

SCHEMES = ("floc", "pushback", "redpd", "cdfpsp", "fairshare", "red",
           "droptail")


def test_baselines_roundup():
    results = {}
    for scheme in SCHEMES:
        scenario = build_tree_scenario(
            scale_factor=SETTINGS.scale,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=SETTINGS.seed,
            start_spread_seconds=0.5,
            # the flood starts after CDF-PSP's training window, so the
            # history-based baseline is tested on its own terms —
            # identical timing for every scheme
            attack_start_seconds=3.5,
        )
        results[scheme] = run_breakdown(scenario, scheme, SETTINGS)
    rows = []
    for scheme, result in results.items():
        b = result.breakdown
        rows.append(
            [
                scheme,
                b.legit_in_legit,
                b.legit_in_attack,
                b.attack,
                jain_index(result.legit_in_legit_rates),
            ]
        )
    print(
        format_table(
            ["scheme", "legit-legit", "legit-attack", "attack",
             "legit Jain index"],
            rows,
            title="ROUNDUP: all defenses vs the same 2.0 Mbps/bot CBR flood",
        )
    )

    legit_total = {s: r.breakdown.legit_total for s, r in results.items()}
    # FLoc wins; the aggregate/per-flow/history baselines sit in between;
    # no defense loses
    assert legit_total["floc"] == max(legit_total.values())
    assert legit_total["droptail"] <= min(
        legit_total["floc"], legit_total["pushback"], legit_total["cdfpsp"]
    )
    # CDF-PSP's history isolation does protect conformant traffic against
    # a flood that post-dates its training
    assert legit_total["cdfpsp"] > legit_total["droptail"] + 0.1
    # fairness among legitimate-path flows stays reasonable under FLoc
    assert jain_index(results["floc"].legit_in_legit_rates) > 0.6

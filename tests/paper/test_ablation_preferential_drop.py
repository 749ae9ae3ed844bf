"""Ablation: FLoc with vs without the Eq.-(IV.5) preferential drop policy.

Preferential drops are what protect legitimate flows *inside* attack
domains — per-path token buckets alone confine the attack to its domains
but split each contaminated domain's allocation between bots and victims.
"""

from repro.analysis.report import format_table
from repro.core.config import FLocConfig
from repro.experiments.common import mean, run_breakdown
from repro.traffic.scenarios import build_tree_scenario

from . import SETTINGS


def test_ablation_preferential_drop():
    results = {}
    for label, pref in (("with", True), ("without", False)):
        scenario = build_tree_scenario(
            scale_factor=SETTINGS.scale,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=SETTINGS.seed,
        )
        cfg = FLocConfig(preferential_drop=pref)
        results[label] = run_breakdown(scenario, "floc", SETTINGS, cfg)
    rows = []
    for label, result in results.items():
        b = result.breakdown
        rows.append(
            [
                f"{label} preferential drop",
                b.legit_in_attack,
                b.attack,
                mean(result.legit_in_attack_rates),
                mean(result.attack_rates),
            ]
        )
    print(
        format_table(
            ["variant", "legit-in-attack share", "attack share",
             "legit/flow Mbps", "bot/flow Mbps"],
            rows,
            title="ABLATION: preferential drop (Eq. IV.5)",
        )
    )

    with_pref = results["with"].breakdown
    without = results["without"].breakdown
    # without preferential drops, bots keep far more bandwidth ...
    assert without.attack > 1.5 * max(with_pref.attack, 0.02)
    # ... and the per-flow advantage of victims over bots disappears
    adv_with = mean(results["with"].legit_in_attack_rates) / max(
        mean(results["with"].attack_rates), 1e-9
    )
    adv_without = mean(results["without"].legit_in_attack_rates) / max(
        mean(results["without"].attack_rates), 1e-9
    )
    assert adv_with > adv_without

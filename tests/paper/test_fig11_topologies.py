"""FIG-11/12: Internet-scale topology generation statistics."""

from repro.experiments.fig11 import run_fig11


def test_fig11_fig12_topologies():
    stats = {
        "localized": run_fig11("localized"),
        "dispersed": run_fig11("dispersed"),
    }

    for placement, per_variant in stats.items():
        for s in per_variant:
            # CBL-like concentration: the top tenth of contaminated ASes
            # hosts the overwhelming majority of bots
            assert s.bot_concentration_top_10pct > 0.85
            # the intentional 30% legit placement into attack ASes
            assert s.legit_in_attack_as_fraction > 0.2
    # dispersion: Fig. 12 uses 3x more attack ASes, hence more red links
    for loc, dis in zip(stats["localized"], stats["dispersed"]):
        assert dis.n_attack_ases > 2 * loc.n_attack_ases
        assert dis.red_links > loc.red_links

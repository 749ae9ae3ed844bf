"""FIG-8: differential bandwidth guarantees vs attack rate, on every bot
rate the figure prints."""

from repro.experiments.fig08 import run_fig08
from repro.runner.figures import FIG08_RATES as RATES

from . import SETTINGS


def test_fig08_differential():
    breakdowns = {
        (scheme, r): run_fig08(SETTINGS, scheme, r, s_max=25)
        for scheme in ("floc", "pushback", "redpd")
        for r in RATES
    }

    floc = {r: breakdowns[("floc", r)] for r in RATES}
    push = {r: breakdowns[("pushback", r)] for r in RATES}
    redpd = {r: breakdowns[("redpd", r)] for r in RATES}
    slowest, fastest = RATES[0], RATES[-1]

    # paper shape 1: FLoc keeps the legitimate-path share high (the paper
    # reports > 80% ~ 21/25 shares) at every attack rate
    for rate in RATES:
        assert floc[rate].legit_in_legit > 0.6, rate

    # paper shape 2: as bots speed up, FLoc clamps them harder — attack
    # share is non-increasing from the slowest to the fastest bots
    assert floc[fastest].attack <= floc[slowest].attack + 0.05

    # paper shape 3: Pushback's collateral damage — legitimate flows of
    # attack paths get less than under FLoc at high rates
    assert push[fastest].legit_in_attack < floc[fastest].legit_in_attack

    # paper shape 4: RED-PD loses more of the link to fast attackers than
    # FLoc does
    assert redpd[fastest].attack > floc[fastest].attack

    # paper shape 5: FLoc wins on total legitimate bandwidth at all rates
    for rate in RATES:
        assert floc[rate].legit_total >= push[rate].legit_total - 0.03, rate
        assert floc[rate].legit_total >= redpd[rate].legit_total - 0.03, rate

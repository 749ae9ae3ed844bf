"""FIG-7: robustness CDFs across schemes and attack strengths."""

from types import SimpleNamespace

from repro.analysis.cdf import percentile
from repro.experiments.common import mean
from repro.experiments.fig07 import run_fig07, run_fig07_reference

from . import SETTINGS


def test_fig07_robustness():
    samples = {
        (scheme, rate): run_fig07(SETTINGS, scheme, rate)
        for scheme in ("floc", "pushback", "redpd")
        for rate in (0.5, 2.0, 4.0)
    }
    samples[("red-noattack", 0.0)], ideal_flow_mbps = run_fig07_reference(
        SETTINGS
    )
    result = SimpleNamespace(samples=samples, ideal_flow_mbps=ideal_flow_mbps)

    def series(scheme):
        return {
            rate: result.samples[(scheme, rate)]
            for (s, rate) in result.samples
            if s == scheme
        }

    floc = series("floc")
    # paper shape 1: FLoc's distributions are nearly invariant in attack
    # strength and centred near the ideal fair rate
    floc_means = [mean(v) for v in floc.values()]
    assert min(floc_means) > 0.6 * result.ideal_flow_mbps
    # paper shape 2: at the strongest attack FLoc beats both baselines on
    # what legitimate-path flows receive
    strongest = 4.0
    floc_p50 = percentile(result.samples[("floc", strongest)], 0.5)
    for other in ("pushback", "redpd"):
        other_p50 = percentile(result.samples[(other, strongest)], 0.5)
        assert floc_p50 >= other_p50 * 0.95
    # paper shape 3: the no-attack RED reference bounds everything (it has
    # the whole link to itself)
    red = result.samples[("red-noattack", 0.0)]
    assert mean(red) >= max(floc_means) * 0.8

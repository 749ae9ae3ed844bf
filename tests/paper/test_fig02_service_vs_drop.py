"""FIG-2: packet service rate vs drop rate at a congested link."""

from repro.experiments.fig02 import run_fig02

from . import SETTINGS


def test_fig02_service_vs_drop():
    result = run_fig02(SETTINGS)

    # paper shape: the link is busy and drops are orders of magnitude
    # rarer than services — the premise of drop-side accounting
    assert result.service_total > 0
    assert result.service_to_drop_ratio > 20.0
    # drops occur (the link is actually congested)
    assert result.drop_total > 0

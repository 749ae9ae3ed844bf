"""FIG-13/14/15: Internet-scale bandwidth shares at the flooded link.

Each figure runs as ``repro run FIG --variants f-root h-root jpn`` runs
it: the figure's unit tasks through the scheduler, in this process, then
the job's ``finalize``.  Each figure runs once per module; the shape
tests, the localized baseline of Fig. 14 and the CSV pins read the same
results.
"""

import hashlib

import pytest

from repro.analysis.export import write_csv
from repro.fleet import run_fleet
from repro.runner import build_figure_job, figure_tasks

from . import SETTINGS

VARIANTS = ("f-root", "h-root", "jpn")

#: sha256 of the three files ``repro run fig13 fig14 fig15 --variants
#: f-root h-root jpn --csv DIR`` writes; a change that moves a number of
#: Figs. 13-15 re-pins them and says what moved
CSV_SHA256 = {
    "fig13": "154facbeb8c91dc5938489593dece419f0ae82bd003855262d25b9ab4f2fbe51",
    "fig14": "273ef1971e2fb8e85d962eda416c1eaace09e3fc78e41d8cf3142fa5443e6706",
    "fig15": "15a4fc659168f208b61eaadfd638fd38800647dd1323f1206b1e2c071415428b",
}


def run_figure(figure):
    """``(unit results by task name, finalized table)`` for one figure."""
    report = run_fleet(figure_tasks(figure, SETTINGS, variants=VARIANTS))
    assert report.ok, report.summary_rows()
    job = build_figure_job(figure, SETTINGS, variants=VARIANTS)
    return report.results, job.finalize(report.results)


@pytest.fixture(scope="module")
def fig13():
    return run_figure("fig13")


@pytest.fixture(scope="module")
def fig14():
    return run_figure("fig14")


@pytest.fixture(scope="module")
def fig15():
    return run_figure("fig15")


def assert_strategy_shapes(results, figure):
    """The Fig. 13/14 shape claims, shared by both placements."""
    for variant in VARIANTS:
        nd, ff, na, a_lo = (
            results[f"{figure}:{variant}:{label}"]
            for label in ("ND", "FF", "NA", "A-lo")
        )

        # no defense: legitimate flows are essentially denied service
        assert nd.legit_total < 0.10, variant
        # per-flow fairness recovers some bandwidth but attackers dominate
        assert ff.legit_total > nd.legit_total + 0.10, variant
        assert ff.shares["attack"] > ff.legit_total, variant
        # FLoc localises the attack: legitimate flows hold the majority
        assert na.legit_total > 0.5, variant
        assert na.legit_total > ff.legit_total, variant
        # aggregation favours legitimate paths and squeezes attack paths
        assert (
            a_lo.shares["legit_in_legit"]
            >= na.shares["legit_in_legit"] - 0.02
        ), variant
        assert (
            a_lo.shares["legit_in_attack"]
            <= na.shares["legit_in_attack"] + 0.02
        ), variant
        # within attack ASes, legitimate flows beat bots per flow
        assert (
            na.per_flow_mean["legit_in_attack"] > na.per_flow_mean["attack"]
        ), variant


def test_fig13_internet_localized(fig13):
    results, _ = fig13
    assert_strategy_shapes(results, "fig13")


def test_fig14_internet_dispersed(fig13, fig14):
    results, _ = fig14
    assert_strategy_shapes(results, "fig14")

    # paper shape specific to dispersion: with attack sources spread over
    # 3x the ASes, legitimate *paths* keep less than in the localized case
    # (more attack identifiers share the link), while legitimate flows in
    # attack ASes pick up share
    loc_na = fig13[0]["fig13:f-root:NA"]
    dis_na = results["fig14:f-root:NA"]
    assert (
        dis_na.shares["legit_in_legit"]
        <= loc_na.shares["legit_in_legit"] + 0.03
    )
    assert (
        dis_na.shares["legit_in_attack"]
        >= loc_na.shares["legit_in_attack"] - 0.03
    )


def test_fig15_internet_separated(fig15):
    results, _ = fig15
    for variant in VARIANTS:
        nd = results[f"fig15:{variant}:ND"]
        na = results[f"fig15:{variant}:NA"]
        a_lo = results[f"fig15:{variant}:A-lo"]
        # with separation, there is no legit-in-attack category to protect
        assert na.shares["legit_in_attack"] < 0.02
        # ... so FLoc's guarantees concentrate on legitimate paths
        assert na.shares["legit_in_legit"] > 0.5
        assert nd.legit_total < 0.10
        # aggregation can only help legitimate paths here
        assert (
            a_lo.shares["legit_in_legit"]
            >= na.shares["legit_in_legit"] - 0.02
        )


@pytest.mark.parametrize("figure", sorted(CSV_SHA256))
def test_internet_csv_matches_pin(figure, request, tmp_path):
    _, output = request.getfixturevalue(figure)
    path = write_csv(tmp_path / f"{figure}.csv", output.headers, output.rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[figure]

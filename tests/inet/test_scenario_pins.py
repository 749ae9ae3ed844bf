"""Byte lock on scenario assembly.

Each digest covers what ``build_internet_scenario`` hands the
simulators: the route tree's ``parent`` and ``depth``, the per-flow
origin AS and attack flag, the link capacities and the attack ASes, for
the three placements on the three skitter-like variants.  ``PINS`` (the
figures' 500 ASes) were computed before the route-tree generator and
the separated placement were first rewritten for speed, and
``FULL_SIZE_PINS`` (the paper's Section VII size of 2000 ASes; the
benchmark's own build is its f-root localized cell) before the route
tree moved to exact prefix sums and the flow tables to ``np.repeat``.

The route tree decides each pick on exact sums and falls back to the
float scan only when rounding could matter; every pinned build is also
run with that fallback made to raise, so the exact path alone returns
the pinned bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.inet import skitter
from repro.inet.scenarios import build_internet_scenario


def scenario_digest(scenario) -> str:
    h = hashlib.sha256()
    for name, values in (
        ("parent", np.asarray(scenario.topology.parent, dtype=np.int64)),
        ("depth", np.asarray(scenario.topology.depth, dtype=np.int64)),
        ("flow_origin_as", scenario.flow_origin_as),
        ("flow_is_attack", scenario.flow_is_attack),
        ("link_capacity", scenario.link_capacity),
        ("attack_ases", np.asarray(scenario.attack_ases, dtype=np.int64)),
    ):
        h.update(name.encode())
        h.update(str(values.dtype).encode())
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


PINS = {
    "f-root-localized": "ac9694ed84213dc0f08e9d91a4bc21c715e7e45d26e3aa1b37fb96541b434239",
    "f-root-dispersed": "871060a3fc0511a31c8ea4ab827182a0001e3c8cba7ad23aca8647169150f26b",
    "f-root-separated": "fce79ed0b38d5d7cf77602b9e5b11be863c933ee92e012b667f6ac42acaaede3",
    "h-root-localized": "2b91c229a43979a1cb0260243e8442a8181af3d9220a0f49119b6a2e5bfa3cb1",
    "h-root-dispersed": "f68b1cb32f55d8a3a6b2e905d556fbfb64e725fdb714aa3f2272f87bdf5275f2",
    "h-root-separated": "94807f6637521ef2b6f4e0494845c38178ac7bf2cbddc45937aa84e4cb8c5092",
    "jpn-localized": "6f6ccf1b5d0b3f1edff5edc61b4b182758c0118ffc242fcc92ce23056965e3ca",
    "jpn-dispersed": "c212eba5258bdfd72d535cb76cda1354ad87c0eb6fbdfa6ec1bf8e07f7cda425",
    "jpn-separated": "68e591ac10cc09da4f7c1a47f05f4b15fb53487dafeedf60e418ca8a9882cc56",
}

#: the paper's Section VII size (2000 ASes, 10 k legitimate sources in
#: 200 ASes, 100 k bots, 16,000 pkt/tick), seed 1
FULL_SIZE_PINS = {
    "f-root-localized": "0c61e3d62c67b7e925776da7971b97782f2a2df6fdfe44a0695255d667faab80",
    "f-root-dispersed": "f89bdaf8f2aa4a81f1064e96936113459af14e0a5920521192444a3e82b5f54c",
    "f-root-separated": "6355958a488a1dfbb9d19019a1e67ff4e4e8d8797bb2754360b6351dd21099b3",
    "h-root-localized": "3790ae1f39828c511b21526e9ee1e5c4c216325db0b7b9d1b8e57e09197a1f7a",
    "h-root-dispersed": "4d8ff4452577dd59598bf4c3c786c4c15f2b42cc9ca51e227b9050becd96869d",
    "h-root-separated": "d700b06c8474748dd99113d310896623b11fe3b91961504b6194a4e0790ee716",
    "jpn-localized": "38e1eade2e77dddbf806c7d81ed699d6b7205fa186186d47198176c860ea52ab",
    "jpn-dispersed": "0e0f42b4757b416a8b52edeaf33a9e4b3f25f7853f62586c630bcaeac9697a7d",
    "jpn-separated": "0ba91d0690afd60623d3c2edf6a89c9a055f7584e0b89af4cd7ecad87dc31e17",
}

#: the ``inet_fluid_floc`` benchmark build at scale 1.0, seed 1
FULL_SIZE_PIN = FULL_SIZE_PINS["f-root-localized"]


@pytest.mark.parametrize("variant", ["f-root", "h-root", "jpn"])
@pytest.mark.parametrize("placement", ["localized", "dispersed", "separated"])
def test_assembly_pinned(variant, placement):
    scenario = build_internet_scenario(
        variant=variant, placement=placement, n_as=500, seed=7
    )
    assert scenario_digest(scenario) == PINS[f"{variant}-{placement}"]


def build_full_size(variant="f-root", placement="localized"):
    return build_internet_scenario(
        variant=variant,
        placement=placement,
        n_as=2000,
        n_legit_sources=10_000,
        n_legit_ases=200,
        n_bots=100_000,
        target_capacity=16_000.0,
        build_flow_links=False,
        seed=1,
    )


def test_benchmark_size_pinned():
    assert scenario_digest(build_full_size()) == FULL_SIZE_PIN


@pytest.mark.parametrize(
    "cell", sorted(set(FULL_SIZE_PINS) - {"f-root-localized"})
)
def test_full_size_pinned(cell):
    variant, placement = cell.rsplit("-", 1)
    scenario = build_full_size(variant, placement)
    assert scenario_digest(scenario) == FULL_SIZE_PINS[cell]


def _no_scan(weights, r):
    raise AssertionError("a pinned build fell back to the float scan")


@pytest.mark.parametrize(
    "size,cell",
    [("fig", cell) for cell in sorted(PINS)]
    + [("full", cell) for cell in sorted(FULL_SIZE_PINS)],
)
def test_pinned_builds_need_no_scan_fallback(monkeypatch, size, cell):
    monkeypatch.setattr(skitter, "_scan_pick", _no_scan)
    variant, placement = cell.rsplit("-", 1)
    if size == "fig":
        scenario = build_internet_scenario(
            variant=variant, placement=placement, n_as=500, seed=7
        )
        assert scenario_digest(scenario) == PINS[cell]
    else:
        scenario = build_full_size(variant, placement)
        assert scenario_digest(scenario) == FULL_SIZE_PINS[cell]

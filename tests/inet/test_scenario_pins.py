"""Byte lock on scenario assembly.

``PINS`` were computed before the route-tree generator and the separated
placement were rewritten for speed.  Each digest covers what
``build_internet_scenario`` hands the simulators: the route tree's
``parent`` and ``depth``, the per-flow origin AS and attack flag, the
link capacities and the attack ASes, for the three placements on the
three skitter-like variants, plus the benchmark's own 2000-AS build.
"""

import hashlib

import numpy as np
import pytest

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

#: the ``inet_fluid_floc`` benchmark build at scale 1.0, seed 1
FULL_SIZE_PIN = (
    "0c61e3d62c67b7e925776da7971b97782f2a2df6fdfe44a0695255d667faab80"
)


@pytest.mark.parametrize("variant", ["f-root", "h-root", "jpn"])
@pytest.mark.parametrize("placement", ["localized", "dispersed", "separated"])
def test_assembly_pinned(variant, placement):
    scenario = build_internet_scenario(
        variant=variant, placement=placement, n_as=500, seed=7
    )
    assert scenario_digest(scenario) == PINS[f"{variant}-{placement}"]


def test_benchmark_size_pinned():
    scenario = build_internet_scenario(
        n_as=2000,
        n_legit_sources=10_000,
        n_legit_ases=200,
        n_bots=100_000,
        target_capacity=16_000.0,
        placement="localized",
        build_flow_links=False,
        seed=1,
    )
    assert scenario_digest(scenario) == FULL_SIZE_PIN

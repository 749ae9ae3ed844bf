"""The interleave's random draws, as their own property.

``Engine._interleave`` draws with ``Random.randrange(n)`` written out over
``getrandbits`` (rejection sampling on ``n.bit_length()`` bits).  Every
drop victim of every FLoc figure depends on those draws, so the identity
is asserted here by name — on each CPython of the CI matrix — rather than
left to surface as eight opaque sha256 mismatches in
``test_engine_lock.py`` on an interpreter that changes ``_randbelow``.
"""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.engine import Engine
from repro.net.packet import DATA, Packet
from repro.net.topology import Topology
from tests.net.test_engine_equivalence import OracleEngine

seeds = st.integers(min_value=0, max_value=2**32)
# 1, 2, the powers of two and their neighbours are where the bit length,
# and with it the rejection rate, steps
sizes = st.one_of(
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])
    ),
)


def written_out(rng: random.Random, n: int) -> int:
    """The engine's draw, statement for statement."""
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    return i


@given(n=sizes, seed=seeds, draws=st.integers(min_value=1, max_value=40))
@example(n=1, seed=0, draws=40)  # one bit, half the draws rejected
@example(n=2, seed=0, draws=40)
@example(n=64, seed=3, draws=40)
@example(n=65, seed=3, draws=40)
def test_written_out_draw_is_randrange(n, seed, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert written_out(ours, n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


def interleavers(seed):
    topo = Topology()
    topo.add_duplex_link("a", "b")
    pair = Engine(topo, seed=seed), OracleEngine(topo, seed=seed)
    for engine in pair:
        engine._start()
    return pair


def arrivals_of(flow_ids):
    """One tick's arrival list: ``flow_ids`` in arrival order, each flow's
    packets numbered in the order they appear."""
    seqs = {}
    out = []
    for flow_id in flow_ids:
        seq = seqs.get(flow_id, 0)
        seqs[flow_id] = seq + 1
        out.append(Packet(flow_id, DATA, seq, (1,), ("a", "b"), "a", "b", 0))
    return out


@given(
    ticks=st.lists(
        st.lists(st.integers(min_value=0, max_value=40), max_size=80),
        min_size=1,
        max_size=6,
    ),
    seed=seeds,
)
# one flow with many packets; many flows with one; two flows, so every
# removal leaves a last stream that must drain without a draw
@example(ticks=[[5] * 30], seed=1)
@example(ticks=[list(range(33))], seed=1)
@example(ticks=[[0, 1] * 10, [1, 0, 0, 0, 1]], seed=1)
def test_interleave_equals_the_parents_and_keeps_flow_order(ticks, seed):
    new, old = interleavers(seed)
    for flow_ids in ticks:
        arrivals = arrivals_of(flow_ids)
        mixed = new._interleave(list(arrivals))
        assert mixed == old._interleave(list(arrivals))
        assert new._interleave_rng.getstate() == old._interleave_rng.getstate()
        assert sorted(map(id, mixed)) == sorted(map(id, arrivals))
        for flow_id in set(flow_ids):
            seqs = [pkt.seq for pkt in mixed if pkt.flow_id == flow_id]
            assert seqs == sorted(seqs)

"""Unauthenticated packets do not interfere (paper Section III-A).

The security claim behind ``C0 || C1`` as a property: whatever a sender
without a valid capability puts on the wire — and whichever flow, unit
or path identifier it names — the router ends up in exactly the state
it would have reached without those packets, one ``spoofed`` counter
aside.  Exactly means the full :meth:`FLocPolicy.snapshot`: RNG
positions, queue-manager state, LRU order and sketch cells included.
"""

import array
import hmac
import random
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import CapabilityIssuer
from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.net.engine import Engine
from repro.net.packet import DATA, SYN, Packet
from repro.net.topology import Topology

#: Intervals short enough that a 40-tick history crosses several
#: measurement refreshes and aggregation passes.
FAST = dict(
    measure_interval=5,
    aggregation_interval=10,
    flow_active_window=12,
    block_ticks=8,
    s_max=3,
    beta=0.5,
)

BACKENDS = {
    "exact": {},
    "lru": dict(max_tracked_paths=3),
    "sketch": dict(state_backend="sketch", sketch_hot_paths=3, sketch_width=32),
}

#: The legitimate flows: ``(src, dst, pid)``, two of them sharing a path
#: and one source talking to two destinations.
FLOWS = [
    ("h0", "srv", (1, 9)),
    ("h1", "srv", (1, 9)),
    ("h1", "alt", (2, 9)),
    ("h2", "srv", (3, 9)),
    ("h3", "srv", (4, 8)),
    ("h4", "srv", (5, 8)),
]

#: Identifiers no legitimate flow ever uses.
GHOST_PIDS = [(70, 9), (71, 9), (72, 8)]

ORACLE = CapabilityIssuer(FLocConfig().secret)


def forged_capability(kind, src, dst, pid, noise):
    """A capability that must not verify for ``(src, dst, pid)``."""
    if kind == "none":
        return None
    if kind == "short":
        return ORACLE.issue(src, dst, pid)[:-1]
    if kind == "long":
        return ORACLE.issue(src, dst, pid) + b"\x00"
    if kind == "noise":
        return noise
    if kind == "other-pid":
        return ORACLE.issue(src, dst, (pid[0] + 100,) + pid[1:])
    if kind == "other-endpoints":
        return ORACLE.issue(src + "'", dst, pid)
    raise AssertionError(kind)


FORGERIES = (
    "none", "short", "long", "noise", "other-pid", "other-endpoints"
)

legit_op = st.one_of(
    st.tuples(st.just("syn"), st.integers(0, len(FLOWS) - 1)),
    st.tuples(st.just("data"), st.integers(0, len(FLOWS) - 1)),
)
forged_op = st.tuples(
    st.just("forged"),
    st.sampled_from(FORGERIES),
    # whom the packet claims to be: a legitimate flow's addresses ...
    st.integers(0, len(FLOWS) - 1),
    # ... on that flow's own (possibly tracked) path or on a ghost one
    st.one_of(st.none(), st.integers(0, len(GHOST_PIDS) - 1)),
    st.binary(min_size=16, max_size=16),
)
#: A history: per tick, the arrivals in order.
histories = st.lists(
    st.lists(st.one_of(legit_op, legit_op, forged_op), max_size=8),
    min_size=12,
    max_size=40,
)


def freeze(obj):
    """A plain, order-preserving, comparable image of a snapshot value."""
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, (bytes, bytearray, array.array)):
        return bytes(obj)
    if isinstance(obj, (dict, OrderedDict)):
        return [(freeze(k), freeze(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple, deque)):
        return [freeze(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(map(repr, obj))
    if obj is None or isinstance(obj, (int, float, str, bool)):
        return obj
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    assert names, f"cannot freeze {type(obj).__name__}"
    return [
        (name, freeze(getattr(obj, name)))
        for name in names
        if hasattr(obj, name)
    ]


class Router:
    """A policy on a 1 packet/tick, 6-packet link, driven the way the
    engine drives it: ``on_tick``, ``admit`` per arrival with ``on_drop``
    straight after a refusal, tail drops, then service."""

    def __init__(self, backend):
        topo = Topology()
        topo.add_duplex_link("a", "b", capacity=1.0, buffer=6)
        self.link = topo.link("a", "b")
        self.policy = FLocPolicy(FLocConfig(**FAST, **BACKENDS[backend]))
        self.policy.attach(self.link, Engine(topo, seed=11))
        self.caps = {}
        self.decisions = []

    def offer(self, pkt, tick):
        policy, queue = self.policy, self.link.queue
        if not policy.admit(pkt, tick):
            policy.on_drop(pkt, tick)
            return False
        if len(queue) >= self.link.buffer:
            policy.on_drop(pkt, tick)
            return False
        queue.append(pkt)
        return True

    def tick(self, tick, ops, with_forged):
        self.policy.on_tick(tick)
        for op in ops:
            if op[0] == "syn":
                src, dst, pid = FLOWS[op[1]]
                syn = Packet(op[1], SYN, 0, pid, ("a", "b"), src, dst, tick)
                self.decisions.append(self.offer(syn, tick))
                self.caps[op[1]] = syn.capability
            elif op[0] == "data":
                if op[1] not in self.caps:
                    continue  # no handshake yet: it would be a forgery
                src, dst, pid = FLOWS[op[1]]
                pkt = Packet(
                    op[1], DATA, 1, pid, ("a", "b"), src, dst, tick,
                    self.caps[op[1]],
                )
                self.decisions.append(self.offer(pkt, tick))
            elif with_forged:
                _, kind, victim, ghost, noise = op
                src, dst, pid = FLOWS[victim]
                if ghost is not None:
                    pid = GHOST_PIDS[ghost]
                cap = forged_capability(kind, src, dst, pid, noise)
                pkt = Packet(
                    100 + victim, DATA, 1, pid, ("a", "b"), src, dst, tick,
                    cap,
                )
                assert not self.offer(pkt, tick)
        if self.link.queue:
            self.link.queue.popleft()

    def image(self):
        snap = self.policy.snapshot()
        spoofed = snap["drop_stats"].pop("spoofed")
        return freeze(snap), spoofed


def assert_forged_packets_change_nothing(backend, history):
    """Run ``history`` with and without its forged arrivals; returns the
    router that saw them."""
    clean, attacked = Router(backend), Router(backend)
    forged = 0
    for tick, ops in enumerate(history, start=1):
        clean.tick(tick, ops, with_forged=False)
        attacked.tick(tick, ops, with_forged=True)
        forged += sum(op[0] == "forged" for op in ops)
    assert attacked.decisions == clean.decisions
    clean_image, clean_spoofed = clean.image()
    attacked_image, attacked_spoofed = attacked.image()
    assert attacked_image == clean_image
    assert (clean_spoofed, attacked_spoofed) == (0, forged)
    assert attacked.policy.issuer._flows == clean.policy.issuer._flows
    return attacked


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=60, deadline=None)
@given(history=histories)
def test_forged_packets_change_nothing_but_their_counter(backend, history):
    assert_forged_packets_change_nothing(backend, history)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_nor_do_they_in_a_router_under_load(backend):
    """Random histories are sparse; this dense one — one flow at five
    times the link rate, forged packets in every victim's name on every
    tick — makes the router drop for every cause, convict, block,
    aggregate, and (under a budget) evict, fold and revive."""
    rng = random.Random(5)
    history = [[("syn", i) for i in range(len(FLOWS))]]
    for _ in range(39):
        ops = [("data", 0)] * 5
        ops += [("data", rng.randrange(len(FLOWS))) for _ in range(3)]
        ops += [
            (
                "forged",
                rng.choice(FORGERIES),
                rng.randrange(len(FLOWS)),
                rng.choice([None, *range(len(GHOST_PIDS))]),
                rng.randbytes(16),
            )
            for _ in range(4)
        ]
        rng.shuffle(ops)
        history.append(ops)
    policy = assert_forged_packets_change_nothing(backend, history).policy
    assert all(policy.drop_stats.values()), policy.drop_stats
    assert policy.tracker.tracked_units() > 0
    assert any(isinstance(key[0], str) for key in policy.groups)
    if backend != "exact":
        assert policy.eviction_stats["memory-pressure"] > 30
        assert set(policy.paths).isdisjoint(GHOST_PIDS)
    if backend == "sketch":
        assert policy.sketch.revivals_total > 30


# ----------------------------------------------------------------------
# CapabilityIssuer.verify: read-only, and the same answer either way
# ----------------------------------------------------------------------
addresses = st.sampled_from(["h0", "h1", "srv", "alt", 7])
pids = st.sampled_from([(1, 9), (2, 9), (3,)])
tampering = st.one_of(
    st.just(("valid",)),
    st.just(("none",)),
    st.tuples(st.just("flip"), st.integers(0, 127)),
    st.tuples(st.just("resize"), st.integers(0, 24)),
    st.tuples(st.just("raw"), st.binary(min_size=16, max_size=16)),
    st.tuples(st.just("other-pid"), pids),
    st.tuples(st.just("other-src"), addresses),
    st.tuples(st.just("other-dst"), addresses),
)


def tampered(how, src, dst, pid):
    valid = ORACLE.issue(src, dst, pid)
    if how[0] == "valid":
        return valid
    if how[0] == "none":
        return None
    if how[0] == "flip":
        flipped = bytearray(valid)
        flipped[how[1] // 8] ^= 1 << (how[1] % 8)
        return bytes(flipped)
    if how[0] == "resize":
        return (valid * 2)[: how[1]]
    if how[0] == "raw":
        return how[1]
    if how[0] == "other-pid":
        return ORACLE.issue(src, dst, how[1])
    if how[0] == "other-src":
        return ORACLE.issue(how[1], dst, pid)
    return ORACLE.issue(src, how[1], pid)


@settings(max_examples=300, deadline=None)
@given(src=addresses, dst=addresses, pid=pids, how=tampering)
def test_verify_answers_alike_with_and_without_a_memo_entry(
    src, dst, pid, how
):
    cap = tampered(how, src, dst, pid)
    expected = (
        cap is not None
        and len(cap) == 16
        and hmac.compare_digest(cap, ORACLE.issue(src, dst, pid))
    )
    cold = CapabilityIssuer(FLocConfig().secret)
    assert cold.verify(cap, src, dst, pid) is expected
    assert cold.memoised_paths() == 0  # accepted or not: nothing kept

    warm = CapabilityIssuer(FLocConfig().secret)
    warm.issue(src, dst, pid)
    warm.issue("someone", "else", (3,))
    held = {p: dict(flows) for p, flows in warm._flows.items()}
    assert warm.verify(cap, src, dst, pid) is expected
    # a tracked path, another flow on it: still read-only
    assert warm.verify(cap, src, "nobody", pid) is False
    assert warm._flows == held

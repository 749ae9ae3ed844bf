"""Two-part capabilities: authenticity and the covert fanout limit."""

import enum
import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import CapabilityIssuer, _hmac_pads


@pytest.fixture
def issuer():
    return CapabilityIssuer(b"secret", n_max=2)


class TestAuthenticity:
    def test_issue_verify_roundtrip(self, issuer):
        cap = issuer.issue("10.0.0.1", "10.9.9.9", (1, 2, 3))
        assert issuer.verify(cap, "10.0.0.1", "10.9.9.9", (1, 2, 3))

    def test_wrong_source_rejected(self, issuer):
        cap = issuer.issue("10.0.0.1", "10.9.9.9", (1, 2, 3))
        assert not issuer.verify(cap, "10.0.0.2", "10.9.9.9", (1, 2, 3))

    def test_wrong_path_rejected(self, issuer):
        cap = issuer.issue("10.0.0.1", "10.9.9.9", (1, 2, 3))
        assert not issuer.verify(cap, "10.0.0.1", "10.9.9.9", (1, 2, 4))

    def test_none_capability_rejected(self, issuer):
        assert not issuer.verify(None, "a", "b", (1,))

    def test_truncated_capability_rejected(self, issuer):
        cap = issuer.issue("a", "b", (1,))
        assert not issuer.verify(cap[:-1], "a", "b", (1,))

    def test_router_secret_matters(self):
        a = CapabilityIssuer(b"alpha")
        b = CapabilityIssuer(b"beta")
        cap = a.issue("s", "d", (1,))
        assert not b.verify(cap, "s", "d", (1,))


class TestFanoutLimit:
    def test_buckets_bounded_by_n_max(self, issuer):
        buckets = {issuer.fanout_bucket(f"dst{i}") for i in range(200)}
        assert buckets <= {0, 1}
        assert len(buckets) == 2  # both buckets in use across many dsts

    def test_account_key_collapses_covert_flows(self, issuer):
        # one source, many destinations -> at most n_max accounting units
        keys = {
            issuer.account_key("bot", f"dst{i}", (1, 2)) for i in range(50)
        }
        assert len(keys) <= issuer.n_max

    def test_account_key_separates_sources(self, issuer):
        k1 = issuer.account_key("botA", "dst", (1, 2))
        k2 = issuer.account_key("botB", "dst", (1, 2))
        assert k1 != k2

    def test_account_key_separates_paths(self, issuer):
        k1 = issuer.account_key("bot", "dst", (1, 2))
        k2 = issuer.account_key("bot", "dst", (3, 2))
        assert k1 != k2

    def test_n_max_one_collapses_everything(self):
        issuer = CapabilityIssuer(b"s", n_max=1)
        keys = {issuer.account_key("bot", f"d{i}", (1,)) for i in range(20)}
        assert len(keys) == 1

    def test_invalid_n_max_rejected(self):
        with pytest.raises(ValueError):
            CapabilityIssuer(b"s", n_max=0)

    def test_bucket_deterministic(self, issuer):
        assert issuer.fanout_bucket("x") == issuer.fanout_bucket("x")


# ----------------------------------------------------------------------
# the capability bytes, locked against HMAC-SHA256 as the library computes it
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    """An address type whose ``str()`` and ``format()`` differ on 3.10."""

    RED = 1
    GREEN = 2


def reference_mac(key, *parts):
    return hmac.new(
        key, "|".join(map(str, parts)).encode(), hashlib.sha256
    ).digest()[:8]


def reference_bucket(dst, n_max):
    digest = hashlib.sha256("|".join(map(str, ("F", dst))).encode()).digest()
    return int.from_bytes(digest[:4], "big") % n_max


scalars = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.sampled_from(list(Colour)),
)
addresses = st.one_of(
    scalars, st.tuples(scalars), st.tuples(st.text(max_size=4), st.integers())
)
pids = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=8
).map(tuple)


class TestCapabilityBytes:
    def test_pinned_capabilities(self):
        issuer = CapabilityIssuer(b"secret")
        assert (
            issuer.issue("10.0.0.1", "10.9.9.9", (1, 2, 3)).hex()
            == "983167b568e7526ac6f2340220fa8f1a"
        )
        assert (
            issuer.issue("b_5_0", "srv0", (10000123, 5, 2, 1)).hex()
            == "02914ef331b5497e56033702184ceee2"
        )

    @settings(max_examples=300)
    @given(
        secret=st.binary(max_size=80),
        n_max=st.integers(min_value=1, max_value=5),
        src=addresses,
        dst=addresses,
        pid=pids,
    )
    def test_halves_match_the_library_hmac(self, secret, n_max, src, dst, pid):
        issuer = CapabilityIssuer(secret, n_max=n_max)
        k0 = hmac.new(secret, b"C0", hashlib.sha256).digest()
        k1 = hmac.new(secret, b"C1", hashlib.sha256).digest()
        bucket = reference_bucket(dst, n_max)
        c0 = reference_mac(k0, src, dst, pid)
        c1 = reference_mac(k1, src, bucket, pid)
        assert issuer.fanout_bucket(dst) == bucket
        assert issuer._c0(src, dst, pid) == c0
        assert issuer._c1(src, bucket, pid) == c1
        # a memo miss: authenticate computes the halves itself and
        # remembers exactly what issue would have
        fresh = CapabilityIssuer(secret, n_max=n_max)
        assert fresh.authenticate(c0 + c1, src, dst, pid) == (src, bucket, pid)
        assert fresh._flows[pid][(src, dst)] == (c0 + c1, (src, bucket, pid))
        assert issuer.issue(src, dst, pid) == c0 + c1
        bad_c0 = bytes([c0[0] ^ 1]) + c0[1:] + c1
        bad_c1 = c0 + c1[:-1] + bytes([c1[-1] ^ 1])
        for forged in (bad_c0, bad_c1):
            blank = CapabilityIssuer(secret, n_max=n_max)
            assert blank.authenticate(forged, src, dst, pid) is None
            assert not blank.verify(forged, src, dst, pid)
            assert blank.memoised_paths() == 0


class TestPads:
    def test_rfc4231_case_2(self):
        inner, outer = _hmac_pads(b"Jefe")
        inner = inner.copy()
        inner.update(b"what do ya want for nothing?")
        outer = outer.copy()
        outer.update(inner.digest())
        assert outer.hexdigest() == (
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843"
        )

    def test_keys_longer_than_a_block_refused(self):
        _hmac_pads(bytes(64))
        with pytest.raises(ValueError):
            _hmac_pads(bytes(65))

    def test_derived_keys_fit_a_block(self, issuer):
        assert len(issuer._k0) == len(issuer._k1) == 32

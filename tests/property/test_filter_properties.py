"""Property-based tests on the drop-record filter and capabilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import CapabilityIssuer
from repro.core.dropfilter import DropRecordFilter

keys = st.text(min_size=1, max_size=12)


class TestDropFilterProperties:
    @given(
        drops=st.lists(
            st.tuples(keys, st.integers(min_value=0, max_value=10_000)),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_ratio_always_in_unit_interval(self, drops):
        filt = DropRecordFilter(m=3, bits=8)
        for key, tick in sorted(drops, key=lambda kv: kv[1]):
            filt.record_drop(key, tick, epoch_ticks=50)
        for key, _ in drops:
            ratio = filt.preferential_drop_ratio(key, 10_001, 50)
            assert 0.0 <= ratio <= 1.0

    @given(
        n=st.integers(min_value=1, max_value=60),
        epoch=st.integers(min_value=1, max_value=200),
    )
    def test_burst_drops_counted_conservatively(self, n, epoch):
        # min-over-arrays estimate never exceeds the true drop count
        filt = DropRecordFilter(m=4, bits=10)
        for _ in range(n):
            filt.record_drop("flow", tick=0, epoch_ticks=epoch)
        assert filt._min_entry("flow", 0, epoch)[0] <= n

    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_false_positive_ratio_in_unit_interval(self, n):
        fp = DropRecordFilter.false_positive_ratio(n, m=4, bits=20)
        assert 0.0 <= fp <= 1.0

    @given(
        n_total=st.floats(min_value=1, max_value=1e7),
        frac=st.floats(min_value=0.0, max_value=1.0),
        m=st.integers(min_value=1, max_value=8),
    )
    def test_select_k_always_valid(self, n_total, frac, m):
        n_attack = n_total * frac
        k = DropRecordFilter.select_k(n_total, n_attack, n_total / 2, m)
        assert 1 <= k <= m


class TestCapabilityProperties:
    @given(src=keys, dst=keys, pid=st.lists(st.integers(1, 99), min_size=1,
                                            max_size=5).map(tuple))
    def test_issue_verify_always_roundtrips(self, src, dst, pid):
        issuer = CapabilityIssuer(b"k", n_max=3)
        cap = issuer.issue(src, dst, pid)
        assert issuer.verify(cap, src, dst, pid)

    @given(
        src=keys,
        dsts=st.lists(keys, min_size=1, max_size=40, unique=True),
        n_max=st.integers(min_value=1, max_value=8),
    )
    def test_fanout_never_exceeds_n_max(self, src, dsts, n_max):
        issuer = CapabilityIssuer(b"k", n_max=n_max)
        units = {issuer.account_key(src, d, (1,)) for d in dsts}
        assert len(units) <= n_max

"""The sketch tier against its own previous implementation.

``oracle.py`` holds the code as it stood before the hot-path rewrite
(slicing ``sketch_indices``, numpy scalar cells, indices re-derived in
every fold and seed).  The rewrite claims to be byte-identical, so these
properties use ``==`` on every return value and compare cell *bytes*
after every operation — no tolerance anywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dropfilter
from repro.errors import ConfigError
from repro.sketch import (
    BoundedPathState,
    CountMinSketch,
    ValueSketch,
    sketch_indices,
)

from . import oracle
from .churn import sketch_cells

scalars = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)
keys = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=8,
)
#: few distinct path-like keys, so op sequences revisit and collide
small_keys = st.tuples(st.integers(0, 12), st.integers(0, 2))
values = st.floats(-1e6, 1e6, allow_nan=False)
weights = st.floats(1e-6, 1e3, allow_nan=False)
factors = st.floats(0.0, 1.5, allow_nan=False)


def cell_bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestIndices:
    @given(key=keys, depth=st.integers(1, 16), width=st.integers(8, 2**20))
    def test_same_tuple_as_the_slicing_version(self, key, depth, width):
        new = sketch_indices(key, depth, width)
        assert new == oracle.sketch_indices(key, depth, width)
        assert type(new) is tuple and all(type(j) is int for j in new)
        for namespace in ("path", "bucket"):
            spaced = (namespace, key)
            assert sketch_indices(spaced, depth, 8 * width) == (
                oracle.sketch_indices(spaced, depth, 8 * width)
            )

    @pytest.mark.parametrize("depth", [0, 17, -1])
    def test_depths_blake2b_rejects_still_raise(self, depth):
        with pytest.raises(ValueError):
            sketch_indices("k", depth, 64)

    def test_drop_filter_uses_the_same_function(self):
        assert dropfilter._indices is sketch_indices


value_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fold"), small_keys, values, weights, st.booleans()),
        st.tuples(st.just("estimate"), small_keys, st.booleans()),
        st.tuples(st.just("collided"), small_keys, st.booleans()),
        st.tuples(st.just("scale"), factors),
        st.tuples(st.just("reset")),
        st.tuples(st.just("fill_ratio")),
    ),
    max_size=40,
)


class TestValueSketch:
    @settings(deadline=None)
    @given(
        width=st.integers(8, 24), depth=st.integers(1, 5), ops=value_ops
    )
    def test_every_return_and_every_cell_byte(self, width, depth, ops):
        new, old = ValueSketch(width, depth), oracle.ValueSketch(width, depth)
        for op, *args in ops:
            if op in ("fold", "estimate", "collided"):
                key, *rest, supply = args
                rows = sketch_indices(key, depth, width) if supply else None
                got = getattr(new, op)(key, *rest, rows=rows)
                want = getattr(old, op)(key, *rest, rows=rows)
            else:
                got = getattr(new, op)(*args)
                want = getattr(old, op)(*args)
            assert got == want and type(got) is type(want)
            assert cell_bytes(new._weight, new._wsum) == cell_bytes(
                old._weight, old._wsum
            )
        assert new.memory_bytes == old.memory_bytes

    @given(key=small_keys, value=values, weight=weights)
    def test_blend_is_fold_without_the_readback(self, key, value, weight):
        blended, folded = ValueSketch(16, 3), ValueSketch(16, 3)
        rows = sketch_indices(key, 3, 16)
        assert blended.blend(rows, value, weight) is None
        folded.fold(key, value, weight)
        assert cell_bytes(blended._weight, blended._wsum) == cell_bytes(
            folded._weight, folded._wsum
        )

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_blend_validates_weight_like_fold(self, weight):
        with pytest.raises(ConfigError):
            ValueSketch(16).blend((0, 0, 0, 0), 1.0, weight)


count_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), small_keys, st.floats(-50.0, 50.0)),
        st.tuples(st.just("add"), small_keys, st.integers(-3, 3)),
        st.tuples(st.just("estimate"), small_keys),
        st.tuples(st.just("scale"), factors),
        st.tuples(st.just("reset")),
        st.tuples(st.just("fill_ratio")),
    ),
    max_size=40,
)


class TestCountMinSketch:
    @settings(deadline=None)
    @given(
        width=st.integers(8, 24),
        depth=st.integers(1, 5),
        conservative=st.booleans(),
        ops=count_ops,
    )
    def test_every_return_and_every_cell_byte(
        self, width, depth, conservative, ops
    ):
        new = CountMinSketch(width, depth, conservative)
        old = oracle.CountMinSketch(width, depth, conservative)
        for op, *args in ops:
            got = getattr(new, op)(*args)
            want = getattr(old, op)(*args)
            assert got == want and type(got) is type(want)
            assert cell_bytes(new._cells) == cell_bytes(old._cells)
        assert new.memory_bytes == old.memory_bytes


fills = st.floats(-0.5, 1.5, allow_nan=False)
tier_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("fold_path"),
            small_keys,
            values,
            st.floats(0.0, 500.0),
            st.one_of(st.none(), st.floats(0.0, 1.0)),
        ),
        st.tuples(st.just("seed_path"), small_keys),
        st.tuples(st.just("fold_bucket"), small_keys, fills),
        st.tuples(st.just("fold_bucket"), st.just(("AGG-A", 3, 1)), fills),
        st.tuples(st.just("seed_bucket"), small_keys),
        st.tuples(st.just("seed_bucket"), st.just(("AGG-A", 3, 1))),
        st.tuples(st.just("fold_unit_drops"), small_keys, st.floats(-2.0, 40.0)),
        st.tuples(st.just("unit_drop_estimate"), small_keys),
        st.tuples(st.just("decay_drops"), factors),
    ),
    max_size=50,
)


class TestBoundedPathState:
    @settings(deadline=None)
    @given(
        width=st.integers(8, 24),
        depth=st.integers(1, 5),
        ops=tier_ops,
        carry=st.booleans(),
    )
    def test_supplied_indices_equal_rederived(self, width, depth, ops, carry):
        """The new tier with carried indices (as the router drives it:
        a bucket keyed by a path id borrows that path's rows) against
        the old tier deriving everything on the fly."""
        new, old = BoundedPathState(width, depth), oracle.BoundedPathState(
            width, depth
        )
        for op, *args in ops:
            extra = ()
            if carry and op in ("fold_path", "seed_path"):
                extra = (new.path_indices(args[0]),)
            elif carry and op in ("fold_bucket", "seed_bucket"):
                key = args[0]
                shared = None if key[0] == "AGG-A" else new.path_indices(key)
                extra = (new.bucket_indices(key, shared),)
            got = getattr(new, op)(*args, *extra)
            want = getattr(old, op)(*args)
            assert got == want and type(got) is type(want)
            assert cell_bytes(*sketch_cells(new)) == cell_bytes(
                *sketch_cells(old)
            )
            assert new.stats() == old.stats()
        assert new.memory_bytes == old.memory_bytes

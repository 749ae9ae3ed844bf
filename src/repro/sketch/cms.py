"""Count-min sketch primitives with deterministic blake2b hashing.

Index derivation is shared with the Section V-B drop-record filter
(:mod:`repro.core.dropfilter` imports :func:`sketch_indices`): one
blake2b digest per key yields ``depth`` independent 4-byte row offsets.
Hashing a key is therefore a pure function of ``repr(key)`` — no seeds,
no RNG, no process-dependent state — which keeps every estimate
reproducible across runs, checkpoint restores, and spawn workers.

:class:`CountMinSketch` is the classic overestimating counter sketch
with optional *conservative update* (only the cells that currently hold
the minimum are raised), which tightens the one-sided error
substantially under skewed workloads.

:class:`ValueSketch` estimates a per-key *weighted mean* from two
aligned count-min arrays (weight and weight*value).  The readout picks
the row whose weight cell is smallest — the least-collided view of the
key — and returns ``wsum / weight`` there.  Collisions therefore blend
a key's value toward other keys hashing into the same cells instead of
inflating it without bound, which is the right failure mode for EWMAs,
RTT estimates, and bucket fill fractions.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Any, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

#: Inclusive bounds accepted for sketch geometry; the width floor keeps
#: the modulo bias of the 4-byte row offsets negligible and the depth
#: cap bounds the digest to blake2b's 64-byte maximum.
MIN_WIDTH = 8
MAX_DEPTH = 16

#: ``_UNPACK_WORDS[depth]`` splits a ``4 * depth``-byte digest into its
#: big-endian 4-byte words in one call.  blake2b rejects any other depth
#: before the table is indexed.
_UNPACK_WORDS = tuple(
    struct.Struct(">%dI" % depth).unpack for depth in range(MAX_DEPTH + 1)
)


def sketch_indices(key: Hashable, depth: int, width: int) -> Tuple[int, ...]:
    """``depth`` deterministic row offsets for ``key`` in ``[0, width)``."""
    digest = hashlib.blake2b(repr(key).encode(), digest_size=4 * depth).digest()
    return tuple([word % width for word in _UNPACK_WORDS[depth](digest)])


def _validate_geometry(width: int, depth: int) -> None:
    if width < MIN_WIDTH:
        raise ConfigError(f"sketch width must be >= {MIN_WIDTH}, got {width}")
    if not 1 <= depth <= MAX_DEPTH:
        raise ConfigError(
            f"sketch depth must be in [1, {MAX_DEPTH}], got {depth}"
        )


def _zero_cells(width: int, depth: int) -> "array[float]":
    """``depth`` rows of ``width`` float64 cells, row-major, all zero.

    Cell ``(i, j)`` lives at ``i * width + j``.  A flat ``array("d")``
    because folds and estimates touch ``depth`` cells one at a time: a
    plain float load/store here, a boxed-scalar round trip on a numpy
    array (same IEEE double arithmetic either way).
    """
    return array("d", (0.0,)) * (depth * width)


def _as_numpy(cells: "array[float]") -> "np.ndarray[Any, np.dtype[np.float64]]":
    """Zero-copy numpy view for the whole-array operations.  Built per
    call and never stored: a stored view would pickle as a second copy
    of the cells and stop aliasing them after a restore."""
    return np.frombuffer(cells, dtype=np.float64)


class CountMinSketch:
    """Conservative-update count-min sketch over float counts.

    Estimates are one-sided: ``estimate(key) >= true_count`` always (for
    non-negative adds and no decay), with overestimation bounded by the
    collision mass per row.  ``scale`` multiplies every cell — the
    exponential-decay hook the router uses to age drop history.
    """

    def __init__(
        self, width: int, depth: int = 4, conservative: bool = True
    ) -> None:
        _validate_geometry(width, depth)
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self._cells = _zero_cells(width, depth)

    def _offsets(self, key: Hashable) -> List[int]:
        width = self.width
        rows = sketch_indices(key, self.depth, width)
        return [i * width + j for i, j in enumerate(rows)]

    def add(self, key: Hashable, value: float = 1.0) -> float:
        """Add ``value`` to ``key``; returns the post-update estimate."""
        cells = self._cells
        offsets = self._offsets(key)
        current = [cells[k] for k in offsets]
        if self.conservative and value > 0.0:
            target = min(current) + value
            for k, cell in zip(offsets, current):
                if cell < target:
                    cells[k] = target
            return target
        updated = [cell + value for cell in current]
        for k, cell in zip(offsets, updated):
            cells[k] = cell
        return min(updated)

    def estimate(self, key: Hashable) -> float:
        cells = self._cells
        return min([cells[k] for k in self._offsets(key)])

    def scale(self, factor: float) -> None:
        """Multiply every cell (exponential decay for ``factor`` < 1)."""
        if factor < 0.0:
            raise ConfigError(f"scale factor must be >= 0, got {factor}")
        view = _as_numpy(self._cells)
        view *= factor

    def reset(self) -> None:
        _as_numpy(self._cells).fill(0.0)

    @property
    def memory_bytes(self) -> int:
        return len(self._cells) * self._cells.itemsize

    def fill_ratio(self) -> float:
        """Fraction of non-zero cells (collision-pressure indicator)."""
        return float(np.count_nonzero(_as_numpy(self._cells))) / float(
            len(self._cells)
        )


class ValueSketch:
    """Per-key weighted-mean estimator from aligned count-min arrays."""

    def __init__(self, width: int, depth: int = 4) -> None:
        _validate_geometry(width, depth)
        self.width = width
        self.depth = depth
        self._weight = _zero_cells(width, depth)
        self._wsum = _zero_cells(width, depth)

    def fold(
        self,
        key: Hashable,
        value: float,
        weight: float = 1.0,
        rows: Optional[Tuple[int, ...]] = None,
    ) -> float:
        """Blend ``value`` (mass ``weight``) into ``key``'s cells.

        Returns the post-fold estimate so callers can measure the
        readback error ``|estimate - value|`` introduced by collisions.
        ``rows`` lets a caller holding several same-geometry sketches
        compute :func:`sketch_indices` once and share it.
        """
        if rows is None:
            rows = sketch_indices(key, self.depth, self.width)
        self.blend(rows, value, weight)
        return self._estimate_rows(rows, default=value)

    def blend(
        self, rows: Tuple[int, ...], value: float, weight: float = 1.0
    ) -> None:
        """:meth:`fold` without the readback, for a caller that holds the
        rows and would discard the estimate."""
        if weight <= 0.0:
            raise ConfigError(f"fold weight must be > 0, got {weight}")
        weights = self._weight
        wsums = self._wsum
        width = self.width
        mass = weight * value
        base = 0
        for j in rows:
            weights[base + j] += weight
            wsums[base + j] += mass
            base += width

    def estimate(
        self,
        key: Hashable,
        default: Optional[float] = None,
        rows: Optional[Tuple[int, ...]] = None,
    ) -> Optional[float]:
        """Weighted-mean estimate for ``key``; ``default`` when unseen."""
        if rows is None:
            rows = sketch_indices(key, self.depth, self.width)
        return self._estimate_rows(rows, default)

    def collided(
        self, key: Hashable, rows: Optional[Tuple[int, ...]] = None
    ) -> bool:
        """Whether every one of ``key``'s cells already holds mass."""
        if rows is None:
            rows = sketch_indices(key, self.depth, self.width)
        weights = self._weight
        width = self.width
        base = 0
        for j in rows:
            if not weights[base + j] > 0.0:
                return False
            base += width
        return True

    def _estimate_rows(
        self, rows: Tuple[int, ...], default: Optional[float]
    ) -> Optional[float]:
        weights = self._weight
        width = self.width
        best_w = 0.0
        best_at = -1
        base = 0
        for j in rows:
            w = weights[base + j]
            if w <= 0.0:
                return default
            if best_at < 0 or w < best_w:
                best_w = w
                best_at = base + j
            base += width
        if best_at < 0:
            return default
        return self._wsum[best_at] / best_w

    def scale(self, factor: float) -> None:
        """Decay all mass; the means survive, their confidence fades."""
        if factor < 0.0:
            raise ConfigError(f"scale factor must be >= 0, got {factor}")
        for cells in (self._weight, self._wsum):
            view = _as_numpy(cells)
            view *= factor

    def reset(self) -> None:
        _as_numpy(self._weight).fill(0.0)
        _as_numpy(self._wsum).fill(0.0)

    @property
    def memory_bytes(self) -> int:
        return (
            len(self._weight) * self._weight.itemsize
            + len(self._wsum) * self._wsum.itemsize
        )

    def fill_ratio(self) -> float:
        return float(np.count_nonzero(_as_numpy(self._weight))) / float(
            len(self._weight)
        )

"""The sketch tier as it stood at commit ``1a2bd0b``, kept as the oracle.

Everything below the imports is the old ``repro.sketch.cms`` and
``repro.sketch.bounded`` verbatim: ``sketch_indices`` slicing the digest
``depth`` times, 2-D numpy cell arrays indexed one scalar at a time, a
numpy bool Bloom, every fold reading its estimate back, and indices
re-derived inside every fold and seed.  ``test_sketch_equivalence.py``
requires the current code to return the same values and hold the same
cell bytes as this after every operation.  Do not modernise it.
"""

import hashlib
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.pathid import PathId
from repro.errors import ConfigError

#: Inclusive bounds accepted for sketch geometry; the width floor keeps
#: the modulo bias of the 4-byte row offsets negligible and the depth
#: cap bounds the digest to blake2b's 64-byte maximum.
MIN_WIDTH = 8
MAX_DEPTH = 16


def sketch_indices(key: Hashable, depth: int, width: int) -> Tuple[int, ...]:
    """``depth`` deterministic row offsets for ``key`` in ``[0, width)``."""
    digest = hashlib.blake2b(repr(key).encode(), digest_size=4 * depth).digest()
    return tuple(
        int.from_bytes(digest[4 * i : 4 * i + 4], "big") % width
        for i in range(depth)
    )


def _validate_geometry(width: int, depth: int) -> None:
    if width < MIN_WIDTH:
        raise ConfigError(f"sketch width must be >= {MIN_WIDTH}, got {width}")
    if not 1 <= depth <= MAX_DEPTH:
        raise ConfigError(
            f"sketch depth must be in [1, {MAX_DEPTH}], got {depth}"
        )


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
        self._cells = np.zeros((depth, width), dtype=np.float64)

    def add(self, key: Hashable, value: float = 1.0) -> float:
        """Add ``value`` to ``key``; returns the post-update estimate."""
        rows = sketch_indices(key, self.depth, self.width)
        if self.conservative and value > 0.0:
            current = min(
                float(self._cells[i, j]) for i, j in enumerate(rows)
            )
            target = current + value
            for i, j in enumerate(rows):
                if float(self._cells[i, j]) < target:
                    self._cells[i, j] = target
            return target
        for i, j in enumerate(rows):
            self._cells[i, j] += value
        return min(float(self._cells[i, j]) for i, j in enumerate(rows))

    def estimate(self, key: Hashable) -> float:
        rows = sketch_indices(key, self.depth, self.width)
        return min(float(self._cells[i, j]) for i, j in enumerate(rows))

    def scale(self, factor: float) -> None:
        """Multiply every cell (exponential decay for ``factor`` < 1)."""
        if factor < 0.0:
            raise ConfigError(f"scale factor must be >= 0, got {factor}")
        self._cells *= factor

    def reset(self) -> None:
        self._cells.fill(0.0)

    @property
    def memory_bytes(self) -> int:
        return int(self._cells.nbytes)

    def fill_ratio(self) -> float:
        """Fraction of non-zero cells (collision-pressure indicator)."""
        return float(np.count_nonzero(self._cells)) / float(self._cells.size)


class ValueSketch:
    """Per-key weighted-mean estimator from aligned count-min arrays."""

    def __init__(self, width: int, depth: int = 4) -> None:
        _validate_geometry(width, depth)
        self.width = width
        self.depth = depth
        self._weight = np.zeros((depth, width), dtype=np.float64)
        self._wsum = np.zeros((depth, width), dtype=np.float64)

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
        if weight <= 0.0:
            raise ConfigError(f"fold weight must be > 0, got {weight}")
        if rows is None:
            rows = sketch_indices(key, self.depth, self.width)
        for i, j in enumerate(rows):
            self._weight[i, j] += weight
            self._wsum[i, j] += weight * value
        return self._estimate_rows(rows, default=value)

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
        return all(float(self._weight[i, j]) > 0.0 for i, j in enumerate(rows))

    def _estimate_rows(
        self, rows: Tuple[int, ...], default: Optional[float]
    ) -> Optional[float]:
        best_w = 0.0
        best_sum = 0.0
        seen = False
        for i, j in enumerate(rows):
            w = float(self._weight[i, j])
            if w <= 0.0:
                return default
            if not seen or w < best_w:
                best_w = w
                best_sum = float(self._wsum[i, j])
                seen = True
        if not seen or best_w <= 0.0:
            return default
        return best_sum / best_w

    def scale(self, factor: float) -> None:
        """Decay all mass; the means survive, their confidence fades."""
        if factor < 0.0:
            raise ConfigError(f"scale factor must be >= 0, got {factor}")
        self._weight *= factor
        self._wsum *= factor

    def reset(self) -> None:
        self._weight.fill(0.0)
        self._wsum.fill(0.0)

    @property
    def memory_bytes(self) -> int:
        return int(self._weight.nbytes) + int(self._wsum.nbytes)

    def fill_ratio(self) -> float:
        return float(np.count_nonzero(self._weight)) / float(self._weight.size)


class BoundedPathState:
    """Fixed-memory fold/seed tier for evicted per-path router state."""

    def __init__(self, width: int, depth: int = 4) -> None:
        self.width = width
        self.depth = depth
        self.lambda_sketch = ValueSketch(width, depth)
        self.rtt_sketch = ValueSketch(width, depth)
        self.conformance_sketch = ValueSketch(width, depth)
        self.bucket_fill_sketch = ValueSketch(width, depth)
        # conservative CMS of recent per-unit drop counts so an attack
        # unit's MTD history survives its path's eviction; decayed by the
        # router each measurement interval (exponential forgetting)
        self.unit_drop_sketch = CountMinSketch(width, depth, conservative=True)
        # Bloom membership of folded keys: distinguishes a genuine
        # revival (key folded earlier) from a collision-only hit
        self._seen_bits = np.zeros(8 * width, dtype=bool)
        self.folds_total = 0
        self.revivals_total = 0
        self.collisions_total = 0
        self.fold_abs_error_total = 0.0

    # ------------------------------------------------------------------
    # membership bloom
    # ------------------------------------------------------------------
    def _bloom_rows(self, namespace: str, key: Hashable) -> Tuple[int, ...]:
        return sketch_indices((namespace, key), self.depth, 8 * self.width)

    def _bloom_contains(self, rows: Tuple[int, ...]) -> bool:
        return all(bool(self._seen_bits[j]) for j in rows)

    def _bloom_add(self, rows: Tuple[int, ...]) -> None:
        for j in rows:
            self._seen_bits[j] = True

    # ------------------------------------------------------------------
    # per-path fold / seed
    # ------------------------------------------------------------------
    def fold_path(
        self,
        pid: PathId,
        lambda_rate: float,
        rtt_ewma: float,
        conformance: Optional[float],
    ) -> None:
        """Fold an evicted path's scalars into the sketches."""
        # one index computation shared by every same-geometry sketch;
        # one more for the (wider) bloom
        rows = sketch_indices(pid, self.depth, self.width)
        bloom = self._bloom_rows("path", pid)
        if not self._bloom_contains(bloom) and self.lambda_sketch.collided(
            pid, rows=rows
        ):
            self.collisions_total += 1
        self._bloom_add(bloom)
        readback = self.lambda_sketch.fold(pid, lambda_rate, rows=rows)
        if readback is not None:
            self.fold_abs_error_total += abs(readback - lambda_rate)
        self.rtt_sketch.fold(pid, rtt_ewma, rows=rows)
        if conformance is not None:
            self.conformance_sketch.fold(pid, conformance, rows=rows)
        self.folds_total += 1

    def seed_path(
        self, pid: PathId
    ) -> Optional[Tuple[float, float, Optional[float]]]:
        """Estimates ``(lambda_rate, rtt_ewma, conformance)`` for a
        returning path, or ``None`` if it was never folded (modulo Bloom
        false positives, which surface as blended estimates)."""
        if not self._bloom_contains(self._bloom_rows("path", pid)):
            return None
        rows = sketch_indices(pid, self.depth, self.width)
        lam = self.lambda_sketch.estimate(pid, rows=rows)
        if lam is None:
            return None
        rtt = self.rtt_sketch.estimate(pid, rows=rows)
        conf = self.conformance_sketch.estimate(pid, rows=rows)
        self.revivals_total += 1
        return (max(0.0, lam), rtt if rtt is not None else 0.0, conf)

    # ------------------------------------------------------------------
    # token-bucket fill continuity
    # ------------------------------------------------------------------
    def fold_bucket(self, key: Hashable, fill_fraction: float) -> None:
        """Remember a retiring group's bucket fill (0 = drained)."""
        self._bloom_add(self._bloom_rows("bucket", key))
        self.bucket_fill_sketch.fold(
            key, min(1.0, max(0.0, fill_fraction))
        )

    def seed_bucket(self, key: Hashable) -> Optional[float]:
        """Estimated fill fraction for a re-created group's bucket."""
        if not self._bloom_contains(self._bloom_rows("bucket", key)):
            return None
        fill = self.bucket_fill_sketch.estimate(key)
        if fill is None:
            return None
        return min(1.0, max(0.0, fill))

    # ------------------------------------------------------------------
    # per-unit drop history (exact-tracker mode only; the Section V-B
    # drop filter is itself hash-indexed and survives eviction unaided)
    # ------------------------------------------------------------------
    def fold_unit_drops(self, key: Hashable, drops: float) -> None:
        if drops > 0.0:
            self.unit_drop_sketch.add(key, drops)

    def unit_drop_estimate(self, key: Hashable) -> float:
        return self.unit_drop_sketch.estimate(key)

    def decay_drops(self, factor: float) -> None:
        """Age drop history (called once per measurement interval)."""
        self.unit_drop_sketch.scale(factor)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return (
            self.lambda_sketch.memory_bytes
            + self.rtt_sketch.memory_bytes
            + self.conformance_sketch.memory_bytes
            + self.bucket_fill_sketch.memory_bytes
            + self.unit_drop_sketch.memory_bytes
            + int(self._seen_bits.nbytes)
        )

    def stats(self) -> Dict[str, float]:
        """Counters the router exports through telemetry gauges."""
        return {
            "folds": float(self.folds_total),
            "revivals": float(self.revivals_total),
            "collisions": float(self.collisions_total),
            "fold_abs_error_total": self.fold_abs_error_total,
            "fill_ratio": self.lambda_sketch.fill_ratio(),
            "memory_bytes": float(self.memory_bytes),
        }

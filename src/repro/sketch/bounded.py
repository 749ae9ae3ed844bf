"""The sketch-backed overflow tier behind ``FLocPolicy``.

With ``FLocConfig.state_backend = "sketch"`` the router keeps only a hot
set of ``sketch_hot_paths`` exact :class:`~repro.core.router._PathState`
entries.  When a path is evicted under memory pressure its decision-
relevant scalars are **folded** here — request-rate EWMA, RTT estimate,
conformance value, its group's token-bucket fill fraction, and (in
exact-tracker mode) its units' recent drop counts.  If the path's
traffic returns, the router **seeds** the regenerated exact state from
the sketch estimates instead of starting cold, so a long-lived
legitimate path keeps (an approximation of) its earned history across
evictions — the differential guarantee degrades with collision pressure
instead of vanishing at the first churn wave.

Memory is hard-bounded by construction: four value sketches, one
count-min sketch, and one Bloom array, all sized by
``sketch_width``/``sketch_depth`` at configuration time and never
resized.  The hash positions of an identifier are the only per-id data
the tier hands out (:data:`SketchIndex`); they live on the router's own
path/group entry and die with it, never in a table here.  Collisions are
*measured*, not hidden: every fold records the readback error on the
folded rate, and folds landing entirely on already-occupied cells count
as collisions.  The router exports these through telemetry
(``sketch_*`` metrics) and the ablation benchmark
(``benchmarks/sketch_bench.py``) reports them per budget.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..core.pathid import PathId
from .cms import CountMinSketch, ValueSketch, sketch_indices

#: ``(sketch rows, Bloom rows)`` of one identifier.  Both are pure
#: functions of the identifier, so whoever owns it may derive them once
#: (:meth:`BoundedPathState.path_indices` / ``bucket_indices``), keep
#: them for as long as it keeps the identifier, and hand them back to
#: every fold and seed instead of paying the digests again.
SketchIndex = Tuple[Tuple[int, ...], Tuple[int, ...]]


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
        # revival (key folded earlier) from a collision-only hit; one
        # 0/1 byte per position
        self._seen_bits = bytearray(8 * width)
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
        bits = self._seen_bits
        for j in rows:
            if not bits[j]:
                return False
        return True

    def _bloom_add(self, rows: Tuple[int, ...]) -> None:
        bits = self._seen_bits
        for j in rows:
            bits[j] = 1

    # ------------------------------------------------------------------
    # hash positions
    # ------------------------------------------------------------------
    def path_indices(self, pid: PathId) -> SketchIndex:
        """Rows of ``pid`` in the path sketches and in the path Bloom."""
        return (
            sketch_indices(pid, self.depth, self.width),
            self._bloom_rows("path", pid),
        )

    def bucket_indices(
        self, key: Hashable, path_indices: Optional[SketchIndex] = None
    ) -> SketchIndex:
        """Rows of group ``key`` in the fill sketch and the bucket Bloom.

        A singleton group is keyed by its path identifier and hashes to
        that path's own sketch rows: pass the path's ``path_indices`` to
        share them (the Bloom rows are namespaced and never shared).
        """
        if path_indices is not None:
            rows = path_indices[0]
        else:
            rows = sketch_indices(key, self.depth, self.width)
        return (rows, self._bloom_rows("bucket", key))

    # ------------------------------------------------------------------
    # per-path fold / seed
    # ------------------------------------------------------------------
    def fold_path(
        self,
        pid: PathId,
        lambda_rate: float,
        rtt_ewma: float,
        conformance: Optional[float],
        indices: Optional[SketchIndex] = None,
    ) -> None:
        """Fold an evicted path's scalars into the sketches."""
        rows, bloom = indices or self.path_indices(pid)
        if not self._bloom_contains(bloom) and self.lambda_sketch.collided(
            pid, rows=rows
        ):
            self.collisions_total += 1
        self._bloom_add(bloom)
        readback = self.lambda_sketch.fold(pid, lambda_rate, rows=rows)
        if readback is not None:
            self.fold_abs_error_total += abs(readback - lambda_rate)
        self.rtt_sketch.blend(rows, rtt_ewma)
        if conformance is not None:
            self.conformance_sketch.blend(rows, conformance)
        self.folds_total += 1

    def seed_path(
        self, pid: PathId, indices: Optional[SketchIndex] = None
    ) -> Optional[Tuple[float, float, Optional[float]]]:
        """Estimates ``(lambda_rate, rtt_ewma, conformance)`` for a
        returning path, or ``None`` if it was never folded (modulo Bloom
        false positives, which surface as blended estimates)."""
        rows, bloom = indices or self.path_indices(pid)
        if not self._bloom_contains(bloom):
            return None
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
    def fold_bucket(
        self,
        key: Hashable,
        fill_fraction: float,
        indices: Optional[SketchIndex] = None,
    ) -> None:
        """Remember a retiring group's bucket fill (0 = drained)."""
        rows, bloom = indices or self.bucket_indices(key)
        self._bloom_add(bloom)
        self.bucket_fill_sketch.blend(rows, min(1.0, max(0.0, fill_fraction)))

    def seed_bucket(
        self, key: Hashable, indices: Optional[SketchIndex] = None
    ) -> Optional[float]:
        """Estimated fill fraction for a re-created group's bucket."""
        rows, bloom = indices or self.bucket_indices(key)
        if not self._bloom_contains(bloom):
            return None
        fill = self.bucket_fill_sketch.estimate(key, rows=rows)
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
            + len(self._seen_bits)
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

"""Bounded-memory sketch primitives for router state (ROADMAP item 3).

FLoc's per-path state — token-bucket fill levels, MTD drop counters,
conformance EWMAs — is exact but O(paths).  An adversary that churns
path identifiers (see :class:`repro.traffic.PathChurnFloodSource`) can
grow that state without bound, or, with ``max_tracked_paths`` set, force
evictions that silently destroy long-lived legitimate paths' guarantees.

This package provides the fixed-memory tier the router falls back to:

* :class:`CountMinSketch` — conservative-update count-min sketch with
  deterministic blake2b index derivation (same idiom as the Section V-B
  drop-record filter in :mod:`repro.core.dropfilter`);
* :class:`ValueSketch` — a pair of aligned count-min arrays estimating a
  per-key weighted mean (used for EWMAs, RTTs, and bucket fills);
* :class:`BoundedPathState` — the router-facing tier: evicted paths are
  *folded* into sketches and *seeded* back when their traffic returns,
  so eviction degrades estimates instead of zeroing them.

Everything here is picklable (plain ints/floats, ``array``/``bytearray``
cell buffers, no lambdas, no RNG) and deterministic: estimates depend
only on the folded key/value sequence, never on wall clock or iteration
order.
"""

from __future__ import annotations

from .bounded import BoundedPathState, SketchIndex
from .cms import CountMinSketch, ValueSketch, sketch_indices

__all__ = [
    "BoundedPathState",
    "CountMinSketch",
    "SketchIndex",
    "ValueSketch",
    "sketch_indices",
]

"""FLoc: the paper's primary contribution.

The subsystem decomposes as in the paper:

* :mod:`~repro.core.pathid` — domain-path identifiers (Section III-A).
* :mod:`~repro.core.capability` — two-part network-layer capabilities with
  the covert-attack fanout limit (Sections III-A, IV-B.3).
* :mod:`~repro.core.tokenbucket` — per-path token buckets with the model's
  parameters (Section IV-A, Eqs. IV.1-IV.3).
* :mod:`~repro.core.mtd` — mean-time-to-drop measurement and attack
  flow/path identification (Section IV-B, Eqs. IV.4-IV.5).
* :mod:`~repro.core.dropfilter` — the scalable Bloom-filter drop-record
  store with probabilistic updates (Section V-B).
* :mod:`~repro.core.conformance` — path-conformance EWMA (Eq. IV.6).
* :mod:`~repro.core.aggregation` — the traffic tree of the path
  identifiers, and on it attack-path aggregation (Algorithm 1, Eq. IV.7)
  and legitimate-path aggregation (Eq. IV.8).
* :mod:`~repro.core.queue_manager` — the three queue modes (Section V-A).
* :mod:`~repro.core.router` — :class:`FLocPolicy`, the complete router
  subsystem plugged into the simulation engine.
"""

from .config import FLocConfig
from .pathid import PathId
from .capability import CapabilityIssuer
from .tokenbucket import PathTokenBucket
from .mtd import FlowDropTracker, MtdClassifier
from .dropfilter import DropRecordFilter
from .conformance import ConformanceTracker
from .aggregation import AggregationPlan, aggregate_attack_paths, aggregate_legitimate_paths
from .queue_manager import QueueManager, QueueMode
from .router import FLocPolicy

__all__ = [
    "FLocConfig",
    "PathId",
    "CapabilityIssuer",
    "PathTokenBucket",
    "FlowDropTracker",
    "MtdClassifier",
    "DropRecordFilter",
    "ConformanceTracker",
    "AggregationPlan",
    "aggregate_attack_paths",
    "aggregate_legitimate_paths",
    "QueueManager",
    "QueueMode",
    "FLocPolicy",
]

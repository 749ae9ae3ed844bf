"""Domain-path identifiers.

A *path identifier* (paper Section III-A) is the sequence of AS numbers a
packet traverses from its origin domain to the router's domain, stamped by
the BGP speaker of the origin domain.  We store it origin-first:

    ``pid = (AS_origin, ..., AS_router)``

Two paths that share their last ``k`` elements (their *suffix*) merge ``k``
hops before the congested router; the set of active path identifiers
therefore forms a tree rooted at the router (the paper's traffic tree
``T_R0``), and "aggregation starts from nearby domains (i.e., domains with
longest postfix-matching path identifiers)" (Section IV-C.1).
:mod:`~repro.core.aggregation` builds that tree for both of its
aggregations.
"""

from __future__ import annotations

from typing import Tuple

#: A domain-path identifier, origin AS first.
PathId = Tuple[int, ...]

"""Two-part network-layer capabilities (paper Sections III-A and IV-B.3).

During connection establishment a router issues, for a flow
``(src, dst, path_id)``, the capability ``C = C0 || C1`` where

* ``C0 = Hash(IP_s, IP_d, S_i, K0)`` authenticates the flow identifier —
  only this router can verify it, so identifiers cannot be forged, and
* ``C1 = Hash(IP_s, F(IP_d), S_i, K1)`` with ``F`` uniform on
  ``[0, n_max - 1]`` restricts a source to at most ``n_max`` *distinct*
  capabilities through this router and lets the router account for the
  total bandwidth those capabilities request concurrently.

The ``C1`` bucket is the covert-attack countermeasure: a bot that opens
many low-rate flows to different destinations sees them all collapse into
``n_max`` accounting units, whose combined rate is what MTD-based
identification observes (Section VI-D).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Hashable, Optional, Tuple

from .pathid import PathId

#: Bytes kept from each hash half; 8 bytes is ample for simulation.
_DIGEST_BYTES = 8

#: The unit at which the router accounts flow bandwidth and drops.
AccountKey = Tuple[Hashable, int, PathId]


def _encode(*parts: object) -> bytes:
    return "|".join(str(p) for p in parts).encode()


class CapabilityIssuer:
    """Issues and verifies capabilities; computes covert-defense keys.

    Everything the issuer computes is a pure function of the router
    secret and the flow ``(src, dst, path_id)``, so it is computed once
    per flow and remembered: per-packet verification of a remembered
    flow is a lookup, a length check and one constant-time comparison.
    The memo holds one entry per *verified* flow, grouped by path
    identifier: only :meth:`issue`, :meth:`account_key` and an
    :meth:`authenticate` that succeeds write it — the calls a router
    makes for a SYN it answers and for data it has authenticated — while
    :meth:`verify` and a refusing :meth:`authenticate` only read it, so
    no packet can buy an entry by being refused.  Whoever owns the
    per-path state calls :meth:`forget` when it releases a path; the memo
    is then a subset of the paths that owner tracks by construction,
    whatever order it calls in.

    Parameters
    ----------
    secret:
        The router secret ``K_R``; two subkeys are derived from it for the
        two capability halves.
    n_max:
        Maximum concurrent capabilities (fanout buckets) per source
        (configurable per router, paper footnote 11).
    """

    def __init__(self, secret: bytes, n_max: int = 2) -> None:
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self._k0 = hmac.new(secret, b"C0", hashlib.sha256).digest()
        self._k1 = hmac.new(secret, b"C1", hashlib.sha256).digest()
        self.n_max = n_max
        # path id -> (src, dst) -> (C0 || C1, accounting unit)
        self._flows: Dict[
            PathId, Dict[Tuple[Hashable, Hashable], Tuple[bytes, AccountKey]]
        ] = {}
        self._buckets: Dict[Hashable, int] = {}

    def _c0(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> bytes:
        return hmac.new(
            self._k0, _encode(src_addr, dst_addr, pid), hashlib.sha256
        ).digest()[:_DIGEST_BYTES]

    def _c1(self, src_addr: Hashable, bucket: int, pid: PathId) -> bytes:
        return hmac.new(
            self._k1, _encode(src_addr, bucket, pid), hashlib.sha256
        ).digest()[:_DIGEST_BYTES]

    def _flow(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> Tuple[bytes, AccountKey]:
        """The flow's memo entry, computed on first sight."""
        by_endpoints = self._flows.get(pid)
        if by_endpoints is None:
            by_endpoints = self._flows[pid] = {}
        entry = by_endpoints.get((src_addr, dst_addr))
        if entry is None:
            bucket = self.fanout_bucket(dst_addr)
            capability = self._c0(src_addr, dst_addr, pid) + self._c1(
                src_addr, bucket, pid
            )
            entry = (capability, (src_addr, bucket, pid))
            by_endpoints[(src_addr, dst_addr)] = entry
        return entry

    def forget(self, pid: PathId) -> None:
        """Release the memo of every flow on path ``pid``."""
        self._flows.pop(pid, None)

    def clear(self) -> None:
        """Release every per-flow memo entry (the keys are kept, so
        capabilities issued before stay valid)."""
        self._flows.clear()

    def memoised_paths(self) -> int:
        """Number of path identifiers with memoised flows."""
        return len(self._flows)

    # ------------------------------------------------------------------
    # issue / verify
    # ------------------------------------------------------------------
    def fanout_bucket(self, dst_addr: Hashable) -> int:
        """``F(IP_d)``: hash the destination into ``[0, n_max - 1]``."""
        bucket = self._buckets.get(dst_addr)
        if bucket is None:
            digest = hashlib.sha256(_encode("F", dst_addr)).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.n_max
            self._buckets[dst_addr] = bucket
        return bucket

    def issue(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> bytes:
        """Issue ``C0 || C1`` for a new connection."""
        return self._flow(src_addr, dst_addr, pid)[0]

    def verify(
        self,
        capability: Optional[bytes],
        src_addr: Hashable,
        dst_addr: Hashable,
        pid: PathId,
    ) -> bool:
        """Check both halves against the packet's addresses and path.

        Read-only: a flow the memo holds costs one comparison; any other
        is checked half by half and leaves no entry behind — ``C1`` is
        computed only once ``C0`` has matched, so a forged identifier
        costs one HMAC and no state.  The answer is that of
        ``compare_digest(capability, issue(src, dst, pid))`` either way.
        """
        if capability is None or len(capability) != 2 * _DIGEST_BYTES:
            return False
        by_endpoints = self._flows.get(pid)
        if by_endpoints is not None:
            entry = by_endpoints.get((src_addr, dst_addr))
            if entry is not None:
                return hmac.compare_digest(capability, entry[0])
        if not hmac.compare_digest(
            capability[:_DIGEST_BYTES], self._c0(src_addr, dst_addr, pid)
        ):
            return False
        return hmac.compare_digest(
            capability[_DIGEST_BYTES:],
            self._c1(src_addr, self.fanout_bucket(dst_addr), pid),
        )

    def authenticate(
        self,
        capability: Optional[bytes],
        src_addr: Hashable,
        dst_addr: Hashable,
        pid: PathId,
    ) -> Optional[AccountKey]:
        """The flow's accounting unit if ``capability`` is its
        ``C0 || C1``, else ``None``: what a router asks of every data
        packet, answered by one memo lookup.  Read-only on refusal, as
        :meth:`verify` is; an authentic flow the memo does not hold yet
        is remembered, as :meth:`account_key` would next."""
        if capability is None or len(capability) != 2 * _DIGEST_BYTES:
            return None
        by_endpoints = self._flows.get(pid)
        if by_endpoints is not None:
            entry = by_endpoints.get((src_addr, dst_addr))
            if entry is not None:
                if hmac.compare_digest(capability, entry[0]):
                    return entry[1]
                return None
        if not self.verify(capability, src_addr, dst_addr, pid):
            return None
        return self._flow(src_addr, dst_addr, pid)[1]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def account_key(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> AccountKey:
        """The unit at which the router accounts flow bandwidth and drops.

        All flows of one source whose destinations hash into the same
        ``C1`` bucket share an accounting unit — this is what defeats the
        covert attack's per-flow innocence.
        """
        return self._flow(src_addr, dst_addr, pid)[1]

"""What is left of the shard-parallel fluid simulator: a partitioner and
an on-disk all-reduce that nothing in ``repro`` imports.

The sharded execution mode was retired (two shards ran at 0.70x / 0.61x
of one process on two cores; see EXPERIMENTS.md, "Why there is no shard
mode").  This module exists only until ``benchmarks/e2e/layers.py``
stops importing :func:`partition_scenario`, :class:`ShardSpec` and
:class:`BarrierExchange` for its ``inet.shard.*`` layer metrics; the
next ``[benchmark]`` PR drops those metrics and deletes this file with
its tests.

* :func:`shard_of_path` hashes a path identifier to a shard with seeded
  SHA-256: a total, stable partition (every path id lands in exactly one
  shard, independent of iteration order, deterministic per
  ``(seed, n_shards)``).  :func:`partition_scenario` applies it to every
  AS of a scenario topology.
* :class:`BarrierExchange` is a per-``(tick, round)`` all-reduce over
  files.  Each shard atomically publishes its per-AS partial vectors,
  then polls for its peers' files until a deadline; the full vector is
  rebuilt **by assignment from the owning shard** (never addition).  A
  peer that never shows up trips :class:`ShardBarrierTimeout`.  Writes
  are idempotent (skip-if-exists), and every ``epoch_ticks`` ticks a
  shard garbage-collects its *own* files older than two epochs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, RunnerError
from .scenarios import InternetScenario


class ShardBarrierTimeout(RunnerError):
    """A shard waited past its deadline for a peer's barrier-exchange
    round (the peer is dead or stalled)."""


def shard_of_path(
    path_id: Sequence[int], n_shards: int, seed: int
) -> int:
    """Owning shard of one path identifier.

    Seeded SHA-256 over the path-id tuple: a pure function of
    ``(path_id, n_shards, seed)``, so the assignment is deterministic,
    independent of enumeration order, and stable across processes
    (unlike ``hash()``, which is salted per interpreter).
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    key = f"{seed}:{','.join(str(hop) for hop in path_id)}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def partition_scenario(
    scenario: InternetScenario, n_shards: int, seed: int
) -> np.ndarray:
    """Owning shard per AS number, over the whole topology.

    Keyed by each AS's path identifier, so the partition is a statement
    about the path-id space; ASes without flows get owners too (their
    vector entries are zero everywhere — owned zeros assign as zeros).
    """
    topo = scenario.topology
    owners = np.zeros(topo.n_as, dtype=np.int64)
    for asn in range(topo.n_as):
        owners[asn] = shard_of_path(topo.path_of(asn), n_shards, seed)
    return owners


@dataclass(eq=False)
class ShardSpec:
    """One shard's identity within a partition plan."""

    shard: int
    n_shards: int
    shard_of_as: np.ndarray  # int64, owning shard per AS number

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if not 0 <= self.shard < self.n_shards:
            raise ConfigError(
                f"shard index {self.shard} outside [0, {self.n_shards})"
            )
        owners = np.asarray(self.shard_of_as)
        if owners.size and (owners.min() < 0 or owners.max() >= self.n_shards):
            raise ConfigError(
                "shard_of_as names shards outside the partition plan"
            )


class BarrierExchange:
    """On-disk per-tick allreduce between the shards of one unit.

    One file per ``(tick, round, shard)``, written atomically (tmp +
    ``os.replace``) under ``directory``.  The clock and sleep are
    injected (defaults reference ``time.monotonic``/``time.sleep``
    without calling them here) so the straggler deadline is testable and
    the simulation packages stay free of wall-clock reads; ``poll_hook``
    runs once per poll iteration and is excluded from pickled state.
    """

    def __init__(
        self,
        directory: str,
        spec: ShardSpec,
        epoch_ticks: int = 50,
        timeout_seconds: float = 120.0,
        poll_seconds: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if epoch_ticks < 1:
            raise ConfigError(f"epoch_ticks must be >= 1, got {epoch_ticks}")
        if timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be > 0, got {timeout_seconds}"
            )
        self.directory = directory
        self.spec = spec
        self.epoch_ticks = epoch_ticks
        self.timeout_seconds = timeout_seconds
        self.poll_seconds = poll_seconds
        self._clock = clock
        self._sleep = sleep
        self.poll_hook: Optional[Callable[[], None]] = None
        os.makedirs(directory, exist_ok=True)

    def __getstate__(self) -> Dict[str, Any]:
        # the poll hook is a live object of whoever drives the exchange
        # (e.g. a bound watchdog method); it must not ride through pickle
        state = dict(self.__dict__)
        state["poll_hook"] = None
        return state

    # -- file layout ---------------------------------------------------
    def _path(self, tick: int, round_key: str, shard: int) -> str:
        return os.path.join(
            self.directory, f"t{tick:08d}-{round_key}.s{shard}.pkl"
        )

    def _publish(self, tick: int, round_key: str, payload: Dict[str, Any]) -> None:
        path = self._path(tick, round_key, self.spec.shard)
        if os.path.exists(path):
            # replay of a round already published: a deterministic
            # caller would write identical bytes — skip
            return
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(prefix=".x-", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _collect(self, tick: int, round_key: str) -> Dict[int, Dict[str, Any]]:
        """Block until every peer's round file exists, then load them."""
        payloads: Dict[int, Dict[str, Any]] = {}
        pending = set(range(self.spec.n_shards)) - {self.spec.shard}
        deadline = self._clock() + self.timeout_seconds
        while pending:
            for shard in sorted(pending):
                path = self._path(tick, round_key, shard)
                try:
                    with open(path, "rb") as handle:
                        payloads[shard] = pickle.loads(handle.read())
                except FileNotFoundError:
                    continue
                pending.discard(shard)
            if not pending:
                break
            if self.poll_hook is not None:
                self.poll_hook()
            if self._clock() >= deadline:
                raise ShardBarrierTimeout(
                    f"shard {self.spec.shard} waited "
                    f"{self.timeout_seconds:.1f}s at tick {tick} round "
                    f"{round_key!r} for shard(s) {sorted(pending)}; peers "
                    "are dead or stalled"
                )
            self._sleep(self.poll_seconds)
        return payloads

    def _collect_garbage(self, tick: int) -> None:
        """Drop this shard's own round files older than two epochs.

        Lock-step bounds peer skew to one tick and a restarted peer
        resumes at most ``epoch_ticks`` back, so nothing below
        ``tick - 2 * epoch_ticks`` can ever be read again.
        """
        floor = tick - 2 * self.epoch_ticks
        if floor <= 0:
            return
        suffix = f".s{self.spec.shard}.pkl"
        for fname in os.listdir(self.directory):
            if not fname.startswith("t") or not fname.endswith(suffix):
                continue
            try:
                file_tick = int(fname[1:9])
            except ValueError:
                continue
            if file_tick < floor:
                try:
                    os.unlink(os.path.join(self.directory, fname))
                except OSError:
                    pass

    # -- the allreduce itself -------------------------------------------
    def allreduce(
        self,
        tick: int,
        round_key: str,
        vectors: Dict[str, np.ndarray],
        counts: Dict[str, int],
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        """Publish local partials, await peers, rebuild global values.

        Vectors are reassembled column-by-column from the owning shard
        (assignment, never addition), into an array of the *caller's*
        dtype — every shard must pass the same dtype for a name (an
        int64 ``mine`` would truncate a peer's floats).  Counts must be
        integers: they are summed across shards, which is exact in any
        order.
        """
        self._publish(tick, round_key, {"vectors": vectors, "counts": counts})
        if round_key == "load" and tick % self.epoch_ticks == 0:
            self._collect_garbage(tick)
        peers = self._collect(tick, round_key)

        spec = self.spec
        full_vectors: Dict[str, np.ndarray] = {}
        for name, mine in vectors.items():
            full = np.zeros_like(mine)
            for shard in range(spec.n_shards):
                part = (
                    mine if shard == spec.shard
                    else peers[shard]["vectors"][name]
                )
                mask = spec.shard_of_as == shard
                full[mask] = part[mask]
            full_vectors[name] = full
        full_counts: Dict[str, int] = {}
        for name, value in counts.items():
            total = int(value)
            for shard in sorted(peers):
                total += int(peers[shard]["counts"][name])
            full_counts[name] = total
        return full_vectors, full_counts


__all__ = [
    "BarrierExchange",
    "ShardBarrierTimeout",
    "ShardSpec",
    "partition_scenario",
    "shard_of_path",
]

"""Crash-safe checkpoint storage for supervised experiment runs.

A :class:`CheckpointStore` owns one directory and keeps three kinds of
entries, all pickled Python objects:

* ``unit`` — the finished result of one experiment unit (e.g. one
  (scheme, attack-rate) cell of a figure sweep).  A resumed job skips
  every unit already stored.
* ``salvage`` — partial results rescued from a failed or interrupted
  job, clearly segregated from trustworthy ``unit`` entries.
* ``telemetry`` — one task's telemetry piece (metrics registry and, when
  tracing, the event log), saved alongside its unit so a resumed run
  folds the same pieces into its exports as an uninterrupted one.  Telemetry
  holds no wall-clock data (the tick profiler belongs to the span
  tracer, which simulators look up per tick and never store).

Crash safety is torn-write-proof by construction: every file is written
to a temporary name in the same directory, fsynced, then atomically
``os.replace``d into place, and only *then* recorded (again atomically)
in ``MANIFEST.json`` together with its SHA-256.  A crash at any point
leaves either the old manifest (the new file is ignored as unmanifested
garbage) or the new one (the file is complete and verified on load).  A
manifested file whose digest no longer matches raises
:class:`~repro.errors.CheckpointError` — silent corruption never flows
into results.

The store is also safe for *concurrent writers* (the
:mod:`repro.fleet` workers all share one checkpoint directory):

* entry payloads are content-addressed — the filename embeds a digest
  prefix, so two processes saving the same key never race on one path;
* every manifest mutation is a read-modify-write of the on-disk
  manifest under an ``O_EXCL`` lockfile, so entries recorded by other
  processes are preserved rather than clobbered by a stale in-memory
  copy;
* readers re-read the manifest from disk when a key is locally unknown,
  so a supervisor sees the units its workers have completed.

A writer SIGKILLed at any instant therefore leaves the directory in one
of two states: the entry fully recorded, or absent with at most an
orphaned payload file and a lockfile that later writers break once it
goes stale.  Either way the manifest parses and every manifested entry
verifies.

The manifest also carries a *job fingerprint* (figure name, settings
and, for a figure, the format of its unit results): resuming with
different settings than the checkpoints were produced under would
silently mix incompatible results, and resuming results of another
format would fail only when one is unpickled, so :meth:`check_job`
fails loudly instead, before any unit runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import CheckpointError

KINDS = ("unit", "salvage", "telemetry")

_MANIFEST = "MANIFEST.json"
_LOCKFILE = "MANIFEST.lock"


def _slug(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "unit"
    digest = hashlib.sha256(name.encode()).hexdigest()[:8]
    return f"{safe[:80]}-{digest}"


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _ManifestLock:
    """``O_EXCL`` lockfile serialising manifest read-modify-write cycles.

    The critical section it guards is milliseconds long (parse + dump one
    JSON file), so contention resolves by short polling.  A lock whose
    file has not changed for ``stale_seconds`` belongs to a crashed
    process — a live writer re-creates the manifest far faster — and is
    broken so one SIGKILLed worker cannot wedge the whole fleet.
    """

    def __init__(
        self,
        path: str,
        timeout_seconds: float = 30.0,
        stale_seconds: float = 10.0,
    ) -> None:
        self.path = path
        self.timeout_seconds = timeout_seconds
        self.stale_seconds = stale_seconds

    def __enter__(self) -> "_ManifestLock":
        deadline = time.monotonic() + self.timeout_seconds
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    raise CheckpointError(
                        f"could not acquire checkpoint lock {self.path} "
                        f"within {self.timeout_seconds:.0f}s; a concurrent "
                        f"writer is wedged or the directory is shared too "
                        f"widely"
                    )
                time.sleep(0.005)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
            return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def _break_if_stale(self) -> None:
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return  # holder released it between our open and stat
        if age > self.stale_seconds:
            try:
                os.unlink(self.path)
            except OSError:
                pass


class CheckpointStore:
    """Atomic, manifest-verified pickle storage rooted at one directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._manifest: Dict[str, Any] = {"version": 1, "job": None, "entries": {}}
        self._read_manifest()

    # -- manifest handling ----------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST)

    def _lock(self) -> _ManifestLock:
        return _ManifestLock(os.path.join(self.root, _LOCKFILE))

    def _read_manifest(self) -> None:
        path = self._manifest_path()
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or "entries" not in data:
            raise CheckpointError(
                f"malformed checkpoint manifest {path}: no entries table"
            )
        self._manifest = data

    def _write_manifest(self) -> None:
        blob = json.dumps(self._manifest, indent=2, sort_keys=True)
        _atomic_write(self._manifest_path(), blob.encode())

    def _mutate_manifest(
        self, mutate: Callable[[Dict[str, Any]], None]
    ) -> None:
        """Apply one mutation to the *on-disk* manifest, atomically.

        Under the lock the manifest is re-read, so entries recorded by
        concurrent processes since our last read survive the write —
        without this, two workers sharing a store would interleave stale
        in-memory copies and silently drop each other's entries.
        """
        with self._lock():
            self._read_manifest()
            mutate(self._manifest)
            self._write_manifest()

    def refresh(self) -> None:
        """Re-read the manifest to pick up other processes' entries."""
        self._read_manifest()

    # -- job fingerprint -------------------------------------------------
    def set_job(self, fingerprint: Dict[str, Any]) -> None:
        """Record what job these checkpoints belong to."""

        def mutate(manifest: Dict[str, Any]) -> None:
            manifest["job"] = fingerprint

        self._mutate_manifest(mutate)

    @property
    def job(self) -> Optional[Dict[str, Any]]:
        return self._manifest.get("job")

    def check_job(self, fingerprint: Dict[str, Any]) -> None:
        """Refuse to resume under a different job configuration."""
        self.refresh()
        stored = self.job
        if stored is None:
            self.set_job(fingerprint)
            return
        if stored != fingerprint:
            # the same job but for the result format: its results were
            # pickled from types this version may no longer have
            held, wanted = dict(stored), dict(fingerprint)
            held_format = held.pop("result_format", "unrecorded")
            wanted_format = wanted.pop("result_format", "unrecorded")
            if held == wanted:
                raise CheckpointError(
                    f"checkpoint dir {self.root} holds unit results of format "
                    f"{held_format!r}, but this version writes "
                    f"{wanted_format!r}; use a fresh --checkpoint-dir or drop "
                    f"--resume to start over"
                )
            raise CheckpointError(
                f"checkpoint dir {self.root} belongs to a different job: "
                f"stored {stored!r}, requested {fingerprint!r}; use a fresh "
                f"--checkpoint-dir or drop --resume to start over"
            )

    # -- entries ---------------------------------------------------------
    def _key(self, kind: str, name: str) -> str:
        if kind not in KINDS:
            raise CheckpointError(
                f"unknown checkpoint kind {kind!r}; expected one of {KINDS}"
            )
        return f"{kind}/{name}"

    def save(self, kind: str, name: str, obj: Any) -> str:
        """Atomically pickle ``obj``; returns the file path.

        The filename embeds a digest prefix of the payload, so two
        processes saving the same key concurrently write *different*
        files and the lock-ordered manifest update picks the winner —
        the loser's payload is an unmanifested orphan, never a manifest
        entry whose digest mismatches its file.  The previous payload
        file for the key is unlinked once the manifest points away from
        it.
        """
        key = self._key(kind, name)
        try:
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"cannot checkpoint {key}: object is not picklable ({exc})"
            ) from exc
        sha256 = hashlib.sha256(blob).hexdigest()
        filename = f"{kind}-{_slug(name)}-{sha256[:8]}.pkl"
        path = os.path.join(self.root, filename)
        _atomic_write(path, blob)
        previous: List[str] = []

        def mutate(manifest: Dict[str, Any]) -> None:
            old = manifest["entries"].get(key)
            if old is not None and old["file"] != filename:
                previous.append(old["file"])
            manifest["entries"][key] = {
                "kind": kind,
                "name": name,
                "file": filename,
                "sha256": sha256,
                "bytes": len(blob),
            }

        self._mutate_manifest(mutate)
        for stale in previous:
            try:
                os.unlink(os.path.join(self.root, stale))
            except OSError:
                pass
        return path

    def _entry(self, kind: str, name: str) -> Optional[Dict[str, Any]]:
        """The manifest entry for a key, re-reading the manifest once if
        it is locally unknown (a concurrent process may have written it)."""
        key = self._key(kind, name)
        entry = self._manifest["entries"].get(key)
        if entry is None:
            self.refresh()
            entry = self._manifest["entries"].get(key)
        return entry

    def has(self, kind: str, name: str) -> bool:
        entry = self._entry(kind, name)
        if entry is None:
            return False
        return os.path.exists(os.path.join(self.root, entry["file"]))

    def load(self, kind: str, name: str) -> Any:
        """Load and integrity-check one entry (KeyError if absent)."""
        key = self._key(kind, name)
        entry = self._entry(kind, name)
        if entry is None:
            raise KeyError(key)
        path = os.path.join(self.root, entry["file"])
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint file for {key} vanished: {exc}"
            ) from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"checkpoint {key} is corrupt: sha256 {digest} does not "
                f"match manifest {entry['sha256']} ({path})"
            )
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {key} cannot be unpickled: {exc}"
            ) from exc

    def names(self, kind: str) -> List[str]:
        """Names of all stored entries of one kind, insertion-ordered."""
        if kind not in KINDS:
            raise CheckpointError(
                f"unknown checkpoint kind {kind!r}; expected one of {KINDS}"
            )
        self.refresh()
        return [
            entry["name"]
            for entry in self._manifest["entries"].values()
            if entry["kind"] == kind
        ]

    def reset(self) -> None:
        """Drop every entry and the job fingerprint (files included)."""
        doomed: List[str] = []

        def mutate(manifest: Dict[str, Any]) -> None:
            doomed.extend(
                entry["file"] for entry in manifest["entries"].values()
            )
            manifest["version"] = 1
            manifest["job"] = None
            manifest["entries"] = {}

        self._mutate_manifest(mutate)
        for filename in doomed:
            try:
                os.unlink(os.path.join(self.root, filename))
            except OSError:
                pass

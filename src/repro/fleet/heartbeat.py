"""Worker liveness: heartbeat files and the supervisor-side reader.

The run's :class:`~repro.runner.supervisor.Watchdog` bounds the whole
run, not one worker: it cannot see a worker hung inside a C call,
frozen by the OS, or killed outright.  The fleet closes that gap with a
*heartbeat file* per worker:

* the worker side (:class:`Heartbeat`) rewrites its file — atomically,
  via temp + ``os.replace``, so the supervisor never reads a torn JSON —
  from two places: a daemon *pulse thread* beating every
  ``HEARTBEAT_INTERVAL_SECONDS`` (proves the process is alive and
  scheduled: a SIGSTOP, an OOM freeze, or a GIL-holding hang in C all
  silence it),
  and the job path itself at the start and end of each task (carries
  *which job* the worker holds);
* the supervisor side (:class:`HeartbeatMonitor`) remembers, per
  worker, when the file content last *changed* on its own monotonic
  clock.  ``stale()`` after ``timeout_seconds`` of no change convicts
  the worker, and the pool SIGKILLs it and reassigns its job.

The pulse thread deliberately checks a ``suppressed`` flag before every
write: the ``stall_worker`` process fault flips it to simulate a frozen
process end-to-end (beats stop, the monitor convicts, the pool kills),
without needing to actually wedge the interpreter.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, Optional

#: Pulse-thread beat period.  A constant, not a knob: conviction speed is
#: tuned by the monitor's timeout, which only has to exceed this.
HEARTBEAT_INTERVAL_SECONDS = 0.1


def heartbeat_path(directory: str, worker_id: int) -> str:
    return os.path.join(directory, f"worker-{worker_id:03d}.hb.json")


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".hb-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Heartbeat:
    """Worker-side heartbeat writer with a background pulse thread."""

    def __init__(self, directory: str, worker_id: int) -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = heartbeat_path(directory, worker_id)
        self.worker_id = worker_id
        self.suppressed = False
        self._beats = 0
        self._state = "starting"
        self._job: Optional[str] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self.beat("idle")
        self._thread = threading.Thread(
            target=self._pulse, name="heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)

    def _pulse(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL_SECONDS):
            self.beat()

    # -- beats ----------------------------------------------------------
    def beat(self, state: Optional[str] = None, job: Optional[str] = None) -> None:
        """Rewrite the heartbeat file (no-op while ``suppressed``)."""
        if self.suppressed:
            return
        with self._lock:
            self._beats += 1
            if state is not None:
                self._state = state
                if state != "run":
                    self._job = None
            if job is not None:
                self._job = job
            payload = {
                "pid": os.getpid(),
                "worker": self.worker_id,
                "beats": self._beats,
                "state": self._state,
                "job": self._job,
            }
            try:
                _atomic_write_text(self.path, json.dumps(payload))
            except OSError:
                pass  # a beat lost to disk pressure is not worth dying for


class HeartbeatMonitor:
    """Supervisor-side staleness tracking over all workers' files.

    Staleness is judged on the *supervisor's* monotonic clock from the
    moment the content last changed — never from timestamps inside the
    file, which a frozen worker could have written arbitrarily long ago.
    """

    def __init__(
        self,
        directory: str,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.directory = directory
        self.timeout_seconds = timeout_seconds
        # worker_id -> (last content, monotonic time it changed)
        self._seen: Dict[int, Any] = {}

    def observe(self, worker_id: int) -> None:
        """Record the current content of one worker's heartbeat file."""
        try:
            with open(heartbeat_path(self.directory, worker_id), "rb") as fh:
                content = fh.read()
        except OSError:
            content = b""
        now = time.monotonic()
        known = self._seen.get(worker_id)
        if known is None or known[0] != content:
            self._seen[worker_id] = (content, now)

    def stale(self, worker_id: int) -> bool:
        """Whether the worker's heartbeat has not changed for too long."""
        self.observe(worker_id)
        known = self._seen.get(worker_id)
        if known is None:  # pragma: no cover - observe always records
            return False
        return time.monotonic() - known[1] > self.timeout_seconds

    def forget(self, worker_id: int) -> None:
        """Drop a dead worker's tracking state and heartbeat file."""
        self._seen.pop(worker_id, None)
        try:
            os.unlink(heartbeat_path(self.directory, worker_id))
        except OSError:
            pass

    def snapshot(self, worker_id: int) -> Optional[Dict[str, Any]]:
        """Parsed content of one heartbeat file (None if unreadable)."""
        try:
            with open(
                heartbeat_path(self.directory, worker_id), "r", encoding="utf-8"
            ) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

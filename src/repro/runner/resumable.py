"""Tick-level resumable simulation runs.

Both simulators are picklable whole — engines carry their RNGs, queues
and policy state; fluid simulators keep all run accumulators on ``self``
(see ``FluidSimulator.begin_run``) — so a mid-run checkpoint is simply
the pickled wrapper object.  :func:`run_checkpointed` advances a run in
``checkpoint_interval``-tick segments, snapshotting between segments and
polling the watchdog/shutdown flags only at segment boundaries, so a
kill at any instant loses at most one segment and a resumed run replays
it from identical state — results are bit-identical to an uninterrupted
run because all randomness lives in the pickled RNGs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import Interrupted
from ..telemetry import current
from ..trace import current_tracer
from .checkpoint import CheckpointStore
from .supervisor import GracefulShutdown, Watchdog


def _readopt_telemetry(run: Any) -> None:
    """Re-join a restored run's pickled telemetry with the session's.

    A ``state`` snapshot pickles the simulator together with the
    telemetry it was recording into.  When the resuming session has an
    active telemetry (``current().enabled``), adopt the restored
    registry/trace — so series and counters recorded before the kill
    continue seamlessly — and point the simulator back at the session
    object so both observe one stream.  With session telemetry off, the
    restored run keeps its pickled recorder untouched.
    """
    session = current()
    if not session.enabled:
        return
    for attr in ("engine", "sim"):
        target = getattr(run, attr, None)
        if target is None:
            continue
        restored = getattr(target, "telemetry", None)
        if restored is not None and restored.enabled:
            session.adopt_state(restored)
        if restored is not None:
            target.telemetry = session


class EngineRun:
    """Picklable resumable wrapper around a packet-engine simulation.

    ``payload`` is whatever the finalizer needs alongside the engine
    (typically the :class:`~repro.traffic.scenarios.TreeScenario`, which
    transitively contains the engine); ``engine`` is the
    :class:`~repro.net.engine.Engine` to advance.
    """

    def __init__(self, payload: Any, engine, total_ticks: int) -> None:
        self.payload = payload
        self.engine = engine
        self.total_ticks = total_ticks

    @property
    def ticks_done(self) -> int:
        return self.engine.tick

    @property
    def done(self) -> bool:
        return self.engine.tick >= self.total_ticks

    def advance(self, max_ticks: int) -> int:
        """Run up to ``max_ticks`` more ticks; returns how many ran."""
        n = min(max_ticks, self.total_ticks - self.engine.tick)
        if n > 0:
            self.engine.run(n)
        return max(0, n)


class FluidRun:
    """Picklable resumable wrapper around a fluid-simulator run.

    Calls ``sim.begin_run`` immediately; the simulator's own stepwise
    state (``_run_tick``, accumulators, series) rides along in the
    pickle.
    """

    def __init__(
        self,
        sim,
        ticks: int,
        warmup: int,
        record_series: bool = False,
    ) -> None:
        self.sim = sim
        sim.begin_run(ticks, warmup, record_series)

    @property
    def ticks_done(self) -> int:
        return self.sim._run_tick

    @property
    def done(self) -> bool:
        return self.sim._run_tick >= self.sim._run_ticks

    def advance(self, max_ticks: int) -> int:
        ran = 0
        while ran < max_ticks and not self.done:
            self.sim.step_run()
            ran += 1
        return ran


def run_checkpointed(
    store: Optional[CheckpointStore],
    name: str,
    build: Callable[[], Any],
    finalize: Callable[[Any], Any],
    checkpoint_interval: int = 200,
    shutdown: Optional[GracefulShutdown] = None,
    watchdog: Optional[Watchdog] = None,
    trace_parent: Optional[str] = None,
) -> Any:
    """Run (or resume) one tick-level simulation to completion.

    ``build()`` constructs a fresh :class:`EngineRun`/:class:`FluidRun`;
    if the store holds a ``state`` snapshot under ``name`` it is loaded
    instead and the build is skipped entirely.  Between segments the
    current state is snapshotted; on a shutdown request the final
    snapshot is written and :class:`~repro.errors.Interrupted` raised.
    On completion the state entry is deleted (the caller
    checkpoints the finalized result at unit granularity) and
    ``finalize(run)`` returned.
    """
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    tracer = current_tracer()
    run = None
    if store is not None and store.has("state", name):
        with tracer.span(
            "salvage.load", cat="salvage", parent=trace_parent, unit=name
        ) as span:
            run = store.load("state", name)
            _readopt_telemetry(run)
            span.end(ticks_done=run.ticks_done)
    if run is None:
        with tracer.span("build", cat="run", parent=trace_parent, unit=name):
            run = build()
    segment = 0
    while not run.done:
        if watchdog is not None:
            watchdog.check()
        if shutdown is not None and shutdown.requested:
            if store is not None:
                with tracer.span(
                    "checkpoint.save", cat="checkpoint",
                    parent=trace_parent, unit=name, reason="shutdown",
                ):
                    store.save("state", name, run)
            shutdown.raise_if_requested(context=name)
        with tracer.span(
            "ticks", cat="run", parent=trace_parent, unit=name,
            segment=segment,
        ) as span:
            run.advance(checkpoint_interval)
            span.end(ticks_done=run.ticks_done)
        segment += 1
        if store is not None and not run.done:
            with tracer.span(
                "checkpoint.save", cat="checkpoint",
                parent=trace_parent, unit=name,
            ):
                store.save("state", name, run)
    with tracer.span("finalize", cat="run", parent=trace_parent, unit=name):
        result = finalize(run)
    if store is not None:
        store.delete("state", name)
    return result

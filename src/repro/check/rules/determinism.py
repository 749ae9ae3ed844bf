"""FLC001 — determinism: no wall clocks or unseeded RNG in simulation code.

FLoc's guarantees are only reproducible if a (scenario, seed) pair fully
determines a run (see ``docs/architecture.md``).  Inside the simulation
packages that means:

* no wall-clock reads (``time.time``, ``datetime.now``, ...) — simulated
  time is the engine tick, and checkpoint resume replays ticks, not hours;
* no module-level ``random.*`` calls — the process-global RNG is shared
  mutable state seeded from the OS; every component must draw from a
  seed-derived ``random.Random`` (``Engine.spawn_rng``);
* no legacy ``numpy.random.*`` API — the legacy functions mutate numpy's
  hidden global state; use ``numpy.random.default_rng(seed)``.

Injected clocks (``repro.runner``'s ``clock=time.monotonic`` parameters)
live outside the simulation scope and are exempt by construction.

The telemetry package is in scope — its registry, event log, and
exporters must be tick-driven so traces replay byte-identically — with
exactly one carve-out: :data:`WALL_CLOCK_ALLOWED_MODULES` exempts
``repro.telemetry.profiler`` from the *wall-clock* findings (and only
those).  The tick profiler's entire job is attributing real elapsed time
to subsystems; its measurements never feed back into simulation state,
and its pickle support erases them so checkpoints and digests stay
wall-clock-free.

The span-tracing package ``repro.trace`` is in scope on the same terms:
its one allowed clock is ``repro.trace.clock`` (the second and last
entry in :data:`WALL_CLOCK_ALLOWED_MODULES`), every other trace module
must go through it, and span timestamps only ever reach per-process
JSONL text files — never pickles or digests, which FLC012 enforces
structurally (``__getstate__`` must pickle empty) and a digest-identity
test locks end to end.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import resolve_call_name
from ..diagnostics import Diagnostic
from . import Rule, register

#: Wall-clock reads (resolved through import aliases).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules exempt from the wall-clock findings only (random/numpy rules
#: still apply).  Two entries, both observation-only by construction:
#: the tick profiler and the span tracer's clock module — their state
#: never reaches digests or checkpoints (pickle support erases it; see
#: FLC012 for the structural enforcement).
WALL_CLOCK_ALLOWED_MODULES = frozenset(
    {"repro.telemetry.profiler", "repro.trace.clock"}
)

#: ``random`` module attributes that are safe: seeded RNG constructors.
SEEDED_RANDOM_OK = frozenset({"random.Random", "random.SystemRandom"})

#: Modern (explicitly seeded) numpy.random entry points.
NUMPY_RANDOM_OK = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.BitGenerator",
    }
)


@register
class DeterminismRule(Rule):
    rule_id = "FLC001"
    description = (
        "wall-clock reads, global random.* calls, or legacy numpy.random "
        "API in simulation code break (scenario, seed) determinism"
    )
    scope = (
        "repro.net",
        "repro.inet",
        "repro.core",
        "repro.traffic",
        "repro.telemetry",
        "repro.trace",
    )

    def check(self, module) -> Iterator[Diagnostic]:
        aliases = module.import_aliases
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name is None:
                continue
            if name in WALL_CLOCK_CALLS:
                if module.module in WALL_CLOCK_ALLOWED_MODULES:
                    continue
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read {name}() in simulation code",
                    hint="simulated time is the engine tick; if real time "
                    "is needed (runner deadlines), inject a clock callable "
                    "from outside the simulation packages",
                )
            elif name.startswith("random.") and name not in SEEDED_RANDOM_OK:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"call to the process-global RNG: {name}()",
                    hint="draw from a seed-derived instance instead: "
                    "rng = engine.spawn_rng(name); rng.random()",
                )
            elif (
                name.startswith("numpy.random.")
                and name not in NUMPY_RANDOM_OK
            ):
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"legacy numpy.random API: {name}() mutates hidden "
                    f"global state",
                    hint="use numpy.random.default_rng(seed) and call "
                    "methods on the returned Generator",
                )

"""Repetitions, the chunk-floor estimator, and end-to-end metrics.

Why floors.  On the 2-core shared box this benchmark runs on, twelve
identical 2.2 s runs in one process spread 25 %, and three identical
30 s runs spread 13 %, so neither a median of short runs nor one long
run repeats within a tenth.  The work, however, is deterministic: tick
``k`` of a repetition does exactly the same thing in every repetition.
So each repetition's window is cut into fixed chunks of ticks, every
chunk is timed, and the time of the window is the **sum over chunk
indices of the fastest time that chunk took in any repetition** — the
time the window takes when nothing interferes.  A slow stretch of the
host only matters if it covers the same chunk in every repetition.
Chunks are a few milliseconds long: the shorter they are, the likelier
each has one clean sample (per-tick chunks sat 6 % nearer the quiet-host
time than 10-tick chunks in a noisy spell).

Why calibration.  Some slow stretches outlast a whole run.  After every
chunk one call of the workload's reference kernel is timed as well (see
``reference.py``), and the reported time is the work's floor scaled by
how far the kernel's floor is from its nominal time.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import Outcome, PolicyWrap, Size, Workload

#: Called after every timed chunk: ``(phase, start, end)`` with ``phase``
#: one of ``"build"``, ``"warmup"``, ``"window"``.
ChunkHook = Callable[[str, float, float], None]


def chunk_floor(matrix: Sequence[Sequence[float]]) -> float:
    """Sum over chunk indices of the minimum across repetitions.

    ``matrix[r][c]`` is the time chunk ``c`` took in repetition ``r``.
    """
    if not matrix:
        raise ValueError("chunk_floor needs at least one repetition")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ValueError("repetitions differ in their number of chunks")
    return sum(min(column) for column in zip(*matrix))


def chunk_lengths(ticks: int, chunk_ticks: int) -> List[int]:
    """``ticks`` cut into chunks of ``chunk_ticks`` (the last may be short)."""
    full, rest = divmod(ticks, chunk_ticks)
    return [chunk_ticks] * full + ([rest] if rest else [])


@dataclass
class Phase:
    """Chunk times of one phase of one repetition, and the time of the
    reference-kernel call that followed each chunk."""

    work: List[float] = field(default_factory=list)
    kernel: List[float] = field(default_factory=list)


@dataclass
class Repetition:
    setup: Phase  # the build, then each warm-up chunk
    window: Phase
    outcome: Outcome


def _identity(policy):
    return policy


def run_repetition(
    workload: Workload,
    size: Size,
    seed: int,
    wrap: PolicyWrap = _identity,
    on_built: Optional[Callable[[object], None]] = None,
    on_chunk: Optional[ChunkHook] = None,
) -> Tuple[Repetition, object]:
    """Build, warm up and run one timed window, timing every chunk.

    Returns the timings and the finished live run (``TreeRun`` or
    ``FluidRun``), which the traced pass reads counters from.
    """
    clock = time.perf_counter
    kernel = workload.reference.kernel
    gc.collect()  # the previous repetition's scenario is cyclic garbage

    def record(phase: Phase, name: str, start: float, end: float) -> None:
        phase.work.append(end - start)
        if on_chunk is not None:
            on_chunk(name, start, end)
        begin = clock()
        kernel()
        phase.kernel.append(clock() - begin)

    def advance(phase: Phase, name: str, ticks: int) -> None:
        for length in chunk_lengths(ticks, size.chunk_ticks):
            start = clock()
            live.advance(length)
            record(phase, name, start, clock())

    setup, window = Phase(), Phase()
    start = clock()
    live = workload.build(seed, size, wrap)
    if on_built is not None:
        on_built(live)
    record(setup, "build", start, clock())
    advance(setup, "warmup", size.warmup_ticks)
    live.begin_window()
    advance(window, "window", size.timed_ticks)
    return Repetition(setup, window, live.finish()), live


@dataclass
class Measurement:
    """Every untraced repetition of one workload run."""

    workload: Workload
    seed: int
    reps: List[Repetition] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def reference(self) -> Outcome:
        return self.reps[0].outcome

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(
            f"FAILED OPERATION [{self.workload.name}]: {message}",
            file=sys.stderr,
        )

    def raw_floor(self, phase: str) -> float:
        """Chunk floor of ``"setup"`` or ``"window"``, in seconds as timed."""
        return chunk_floor([getattr(rep, phase).work for rep in self.reps])

    def host_speed(self, phase: str) -> float:
        """Nominal over measured reference-kernel time during ``phase``:
        1 on the nominal host, below 1 on a slower one."""
        kernels = [getattr(rep, phase).kernel for rep in self.reps]
        nominal = self.workload.reference.nominal_s * len(kernels[0])
        return nominal / chunk_floor(kernels)

    def calibrated_floor(self, phase: str) -> float:
        """Chunk floor of the phase in seconds on the nominal host."""
        return self.raw_floor(phase) * self.host_speed(phase)


def measure(workload: Workload, size: Size, seed: int, reps: int) -> Measurement:
    """Run the workload ``reps`` times.

    The count is fixed, not budgeted by wall time: a sum of per-chunk
    minima falls as repetitions are added, so two runs are comparable
    only if they made the same number.

    A repetition is one operation: it fails if it raises or if its
    result digest differs from the first successful repetition's.
    """
    out = Measurement(workload, seed)
    for index in range(reps):
        out.attempted += 1
        try:
            rep, _ = run_repetition(workload, size, seed)
        except Exception:  # boundary: a failed repetition is reported, not fatal
            out.fail(f"repetition {index} raised\n{traceback.format_exc()}")
            continue
        if out.reps and rep.outcome.digest != out.reference.digest:
            out.fail(
                f"repetition {index} digest {rep.outcome.digest[:16]} != "
                f"{out.reference.digest[:16]} of the first repetition"
            )
            continue
        out.reps.append(rep)
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def end_to_end_metrics(m: Measurement) -> Dict[str, float]:
    """The five gated metrics; ``m`` must hold at least one repetition."""
    run_s = m.calibrated_floor("window")
    return {
        "setup_s": m.calibrated_floor("setup"),
        "run_s": run_s,
        "events_per_s": m.reference.events / run_s,
        "legit_share": m.reference.legit_share,
        "peak_rss_mb": peak_rss_mb(),
    }


def harness_metrics(m: Measurement) -> Dict[str, float]:
    """What the harness saw of the host: reported, never gated."""
    totals = [sum(rep.window.work) for rep in m.reps]
    raw = m.raw_floor("window")
    median = statistics.median(totals)
    return {
        "bench.run_raw_s": raw,
        "bench.setup_raw_s": m.raw_floor("setup"),
        "bench.host_speed": m.host_speed("window"),
        "bench.run_median_s": median,
        "bench.run_p90_s": percentile(totals, 90),
        "bench.host_noise_ratio": median / raw,
        "bench.reps": float(len(m.reps)),
        "bench.chunks": float(len(m.reps[0].window.work)),
    }

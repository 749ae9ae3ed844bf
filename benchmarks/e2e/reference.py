"""Reference kernels: a fixed piece of work that measures the host.

The box this benchmark runs on changes speed under it: with nothing else
running in the VM, identical repetitions take 2.2 s in a quiet spell and
3.0-4.5 s in a noisy one, for minutes at a time, and CPU time rises with
wall time (the core itself is slower; no steal is reported).  A floor
over repetitions cannot remove a slow-down that lasts the whole run.

So after every timed chunk of simulator work the harness times one call
of a reference kernel — work of the same kind (interpreter-bound for the
packet engine, numpy-bound for the fluid simulator) that never changes
and touches nothing in ``src/``.  Both series get the same chunk-floor
treatment, and a time is reported as

    floor(work) x nominal kernel time / floor(kernel)

that is, in seconds on a host where the kernel takes its nominal time.
Measured over 120 s of a noisy spell, floors of 8 repetitions ranged
11 % raw and 3.4 % calibrated (packet engine), 5.5 % and 2.4 % (fluid
simulator with the numpy kernel; 4.9 % with the mismatched Python
kernel, which is why there are two).  Over ten 30 s runs with ten seeds
the quartile distance of ``run_s`` was 8-20 % of the median raw and
1.5-6 % calibrated on every workload.

The kernels are part of the benchmark's definition: changing one
changes every calibrated number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self, value: int) -> None:
        self.value = value
        self.count = 0

    def bump(self, amount: int) -> int:
        self.count += 1
        self.value += amount
        return self.value


_PAYLOAD = b"h_3_7|srv0|(13, 4, 1)"


def python_kernel() -> int:
    """About 0.15 ms of what the packet engine spends its time on: small
    object allocation, attribute access, method calls, tuple-keyed dict
    reads and writes, list appends and short SHA-256 digests."""
    cells = [_Cell(i) for i in range(32)]
    table: dict = {}
    kept = []
    total = 0
    for i in range(600):
        total += cells[i & 31].bump(i)
        key = (i & 127, i & 7)
        table[key] = table.get(key, 0) + 1
        if not i & 3:
            kept.append(key)
        if not i & 63:
            total += hashlib.sha256(_PAYLOAD).digest()[0]
    return total + len(kept)


_FLOWS = 110_000
_ASES = 2_000
_RATES = np.linspace(0.0, 1.0, _FLOWS)
_ORIGIN = (np.arange(_FLOWS) * 7919) % _ASES


def numpy_kernel() -> np.ndarray:
    """About 0.5 ms, between simulator steps, of what the fluid simulator
    spends its time on: a masked select, a weighted per-AS bincount, a
    gather and a product over a 110 k-flow vector.  (Called in a loop of
    its own it takes about twice as long: its 880 kB temporaries are
    then mapped and unmapped on every call.)"""
    rates = np.where(_RATES > 0.5, _RATES, _RATES * 0.5)
    by_as = np.bincount(_ORIGIN, weights=rates, minlength=_ASES)
    return rates * by_as[_ORIGIN]


@dataclass(frozen=True)
class Reference:
    """A kernel and the seconds one call takes on the nominal host (its
    floor between chunks in a quiet spell of the 2.1 GHz Xeon VM the
    benchmark was defined on), so that calibrated seconds read like
    real ones there."""

    kernel: Callable[[], Any]
    nominal_s: float


PYTHON = Reference(python_kernel, 150e-6)
NUMPY = Reference(numpy_kernel, 520e-6)

"""Crash-safe experiment running: storage, supervision, figure jobs.

Layers (bottom-up):

* :mod:`~repro.runner.checkpoint` — atomic, manifest-verified pickle
  storage (:class:`CheckpointStore`).
* :mod:`~repro.runner.supervisor` — what a supervised task sees of its
  supervisor: watchdog, retry policy, graceful shutdown,
  :class:`UnitContext`.  The supervisor itself is the scheduler,
  :func:`repro.fleet.pool.run_fleet`.
* :mod:`~repro.runner.figures` — the registry decomposing every figure
  into units (:func:`build_figure_job`) and the picklable task recipes
  the scheduler runs (:func:`figure_tasks`).
"""

from .checkpoint import KINDS, CheckpointStore
from .figures import (
    FigureJob,
    FigureOutput,
    FigureUnitTask,
    build_figure_job,
    figure_tasks,
)
from .supervisor import (
    NON_RETRYABLE,
    GracefulShutdown,
    RetryPolicy,
    UnitContext,
    Watchdog,
)

__all__ = [
    "KINDS",
    "CheckpointStore",
    "FigureJob",
    "FigureOutput",
    "FigureUnitTask",
    "build_figure_job",
    "figure_tasks",
    "NON_RETRYABLE",
    "GracefulShutdown",
    "RetryPolicy",
    "UnitContext",
    "Watchdog",
]

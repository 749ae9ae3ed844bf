"""Experiment runners — one module per paper figure.

Each ``run_*`` function builds the scenario, attaches the scheme under
test, simulates, and returns a structured result.  For the sweep
figures (fig07, fig08, fig10) a call runs one cell of the sweep — one
(scheme, attack rate) or (scheme, fanout) — and returns that cell's
result.  Which cells make a figure is written once, in the figure's job
in ``repro.runner.figures``, which runs one unit per cell for
``repro run`` and builds the table; ``tests/paper/`` calls the runners
for the cells it asserts the paper's *shape* claims on (who wins, by
roughly what factor).

Functional evaluation (Section VI): fig02, fig03, fig04, fig06, fig07,
fig08, fig09, fig10.  Internet-scale evaluation (Section VII): fig11
(+fig12 via parameters); fig13, fig14 and fig15 have no runner here —
their units build the fluid simulator directly from the
:class:`~repro.experiments.fig13.InternetRunSettings`.  Beyond the paper,
the faults study has no runner here either: each of its cells is one
fixed :mod:`repro.chaos` campaign, built in its figure job.
"""

from .common import FunctionalSettings, make_policy, run_breakdown

__all__ = ["FunctionalSettings", "make_policy", "run_breakdown"]

"""Experiment runners — one module per paper figure.

Each ``run_*`` function builds the scenario, attaches the scheme under
test, simulates, and returns a structured result object whose fields map
directly onto the figure's series.  ``repro.runner.figures`` splits each
figure into units over these runners for ``repro run``, and
``tests/paper/`` asserts the paper's *shape* claims on them (who wins,
by roughly what factor).

Functional evaluation (Section VI): fig02, fig03, fig04, fig06, fig07,
fig08, fig09, fig10.  Internet-scale evaluation (Section VII): fig11
(+fig12 via parameters); fig13, fig14 and fig15 have no runner here —
their units build the fluid simulator directly from the
:class:`~repro.experiments.fig13.InternetRunSettings`.  Beyond the paper:
``robustness_faults`` measures graceful degradation under injected
router/link failures (see :mod:`repro.faults`).
"""

from .common import FunctionalSettings, make_policy, run_breakdown

__all__ = ["FunctionalSettings", "make_policy", "run_breakdown"]

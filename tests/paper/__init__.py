"""The paper's shape claims (Figs. 2-15, Sections VI-VII) as plain tests.

Each test runs one figure, ablation or calibration sweep at reduced
scale and asserts what the paper claims about it: who wins, by roughly
what factor, where crossovers fall.  ``python -m repro run FIG [--csv
DIR]`` prints and writes the figures' rows; the ablations, the
baselines roundup and the model validation print theirs here (``-s``).

Performance is judged by ``benchmarks/e2e/run.py --compare``; nothing
here is timed.
"""

from repro.experiments.common import FunctionalSettings

#: the Section VI setting EXPERIMENTS.md quotes: flow counts and link
#: capacity at 8 % of the paper's, 8 s measured after 4 s of warm-up
SETTINGS = FunctionalSettings(
    scale=0.08, warmup_seconds=4.0, measure_seconds=8.0, seed=1
)

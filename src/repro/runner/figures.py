"""Figure jobs: unit decompositions and the task recipes that run them.

:data:`FIGURES` is the one table of reproducible figures: each name's
title and job builder.  A figure's job is the one place its sweep grid
is written: it decomposes the sweep into independent *units* — one cell
each (a (scheme, attack-rate) pair, a (variant, strategy) pair, ...),
each a call of the experiment's one-cell runner — and builds the
figure's table from the cells' results.  Each unit builds its scenario
fresh and is deterministic given the settings' seed, so:

* a killed job resumes by skipping checkpointed units and re-running
  only the incomplete ones, with bit-identical results;
* a failed unit (router bug, invariant violation) costs only its own
  cell — ``finalize`` assembles whatever completed into the figure's
  table and lists the missing cells in ``notes`` rather than discarding
  the run.

The scheduler (:func:`repro.fleet.pool.run_fleet`) runs *tasks*, and a
task may have to cross a spawn boundary, where the unit closures built
here cannot go.  So what is scheduled is the *recipe*: a frozen
dataclass of primitives (:class:`FigureUnitTask`) from which ``run``
rebuilds the closure table — cheap; the simulation is the expensive
part — and picks its unit by name.  The rebuilt unit is the same pure
function of the same settings and seed wherever it runs, and task
``name``s double as checkpoint keys, so every executor salvages every
other's progress.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple,
)

from ..errors import ConfigError
from ..experiments.common import FunctionalSettings, mean
from .supervisor import UnitContext

UnitFn = Callable[[UnitContext], Any]
#: skitter-map variants, for the internet-scale figures
Variants = Tuple[str, ...]


@dataclass
class FigureOutput:
    """A finalized figure table plus free-form annotation lines."""

    headers: List[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)


@dataclass
class FigureJob:
    """A named, unit-decomposed figure experiment.  ``results`` are the
    types its units' results are made of, as a checkpoint pickles them
    (see :func:`result_format`)."""

    figure: str
    units: List[Tuple[str, UnitFn]]
    finalize: Callable[[Dict[str, Any]], FigureOutput]
    results: Tuple[type, ...]
    fingerprint: Dict[str, Any] = field(default_factory=dict)


def result_format(types: Iterable[type]) -> str:
    """The result-format tag of a job whose unit results are made of
    ``types``: each type's name and, for a dataclass, its field names.
    A checkpoint store records it in the job fingerprint, so a store
    written while a unit returned another type is refused at
    ``check_job``, before any unit runs, instead of failing when one of
    its results is unpickled."""
    parts = []
    for cls in types:
        if is_dataclass(cls):
            names = ",".join(f.name for f in fields(cls))
            parts.append(f"{cls.__qualname__}({names})")
        else:
            parts.append(cls.__qualname__)
    return " ".join(parts)


def _missing(results: Dict[str, Any], names: Iterable[str]) -> List[str]:
    gone = [name for name in names if name not in results]
    if not gone:
        return []
    return [f"missing unit (failed or not run): {name}" for name in gone]


def _sweep(
    figure: str, cells: Sequence[Tuple], label: str, run: Callable[..., Any]
) -> Tuple[Dict[Tuple, str], List[Tuple[str, UnitFn]]]:
    """One unit per cell of a sweep: ``run(*cell)``, named
    ``figure:`` + ``label.format(*cell)``.  Returns the names by cell
    and the units."""
    names = {cell: f"{figure}:" + label.format(*cell) for cell in cells}
    units: List[Tuple[str, UnitFn]] = [
        (names[cell], lambda ctx, cell=cell: run(*cell)) for cell in cells
    ]
    return names, units


def _done(
    results: Dict[str, Any], names: Dict[Tuple, str]
) -> Dict[Tuple, Any]:
    """The result of every completed cell, by cell, in unit order."""
    return {
        cell: results[name] for cell, name in names.items() if name in results
    }


# ----------------------------------------------------------------------
# functional figures
# ----------------------------------------------------------------------
def _fig02_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig02 import Fig02Result, run_fig02

    def unit(ctx: UnitContext):
        return run_fig02(settings)

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, ["fig02"])
        rows: List[Sequence] = []
        result = results.get("fig02")
        if result is not None:
            rows = list(result.rows)
            notes.append(
                f"service/drop ratio: {result.service_to_drop_ratio:.1f}"
            )
        return FigureOutput(
            ["second", "service pkt/s", "drop pkt/s"], rows, notes
        )

    return FigureJob("fig02", [("fig02", unit)], finalize, (Fig02Result,))


def _fig03_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig03 import Fig03Result, run_fig03

    def unit(ctx: UnitContext):
        return run_fig03(seed=settings.seed)

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, ["fig03"])
        result = results.get("fig03")
        rows = sorted(result.mode_fractions.items()) if result else []
        return FigureOutput(["size (B)", "fraction"], rows, notes)

    return FigureJob("fig03", [("fig03", unit)], finalize, (Fig03Result,))


def _fig04_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig04 import Fig04Result, run_fig04

    def unit(ctx: UnitContext):
        return run_fig04(seed=settings.seed)

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, ["fig04"])
        rows: List[Sequence] = []
        result = results.get("fig04")
        if result is not None:
            rows = [
                ["unsynchronized", result.utilization_unsync],
                ["synchronized", result.utilization_sync],
                ["partial", result.utilization_partial],
            ]
        return FigureOutput(["case", "token utilization"], rows, notes)

    return FigureJob("fig04", [("fig04", unit)], finalize, (Fig04Result,))


def _fig06_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig06 import Fig06Result, run_fig06

    names, units = _sweep(
        "fig06",
        [("tcp",), ("cbr",), ("shrew",)],
        "{}",
        lambda kind: run_fig06(kind, settings),
    )

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = [
            [kind, r.fair_path_mbps, mean(r.legit_path_means),
             mean(r.attack_path_means)]
            for (kind,), r in _done(results, names).items()
        ]
        return FigureOutput(
            ["attack", "fair Mbps/path", "legit-path mean", "attack-path mean"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob("fig06", units, finalize, (Fig06Result,))


#: the schemes Figs. 7, 8 and 10 compare
_SCHEMES = ("floc", "pushback", "redpd")

#: the bot rates (Mbps) of the Fig. 8 sweep and the per-bot fanouts of the
#: Fig. 10 sweep: the cells ``repro run`` prints, and the cells the
#: ``tests/paper`` shape claims of those figures assert on
FIG08_RATES = (0.2, 0.4, 0.8, 1.6, 3.2, 4.0)
FIG10_FANOUTS = (1, 2, 5, 10, 20)


def _fig07_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..analysis.cdf import percentile
    from ..experiments.fig07 import run_fig07, run_fig07_reference

    names, units = _sweep(
        "fig07",
        [(s, rate) for s in _SCHEMES for rate in (0.5, 1.0, 2.0, 4.0)],
        "{}@{}",
        lambda scheme, rate: run_fig07(settings, scheme, rate),
    )
    reference = "fig07:red-reference"
    units.append((reference, lambda ctx: run_fig07_reference(settings)))

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, [name for name, _ in units])
        done = _done(results, names)
        if reference in results:
            done[("red-noattack", 0.0)], ideal_flow_mbps = results[reference]
            notes.append(f"ideal fair per-flow: {ideal_flow_mbps:.3f} Mbps")
        rows = [
            (scheme, rate, mean(v), percentile(v, 0.10),
             percentile(v, 0.50), percentile(v, 0.90))
            for (scheme, rate), v in sorted(done.items())
        ]
        return FigureOutput(
            ["scheme", "bot Mbps", "mean", "p10", "p50", "p90"], rows, notes
        )

    # a cell's per-flow rates; the reference's (rates, ideal rate) pair
    return FigureJob("fig07", units, finalize, (list, tuple))


def _fig08_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..analysis.accounting import BandwidthBreakdown
    from ..experiments.fig08 import run_fig08

    names, units = _sweep(
        "fig08",
        [(s, rate) for s in _SCHEMES for rate in FIG08_RATES],
        "{}@{}",
        lambda scheme, rate: run_fig08(settings, scheme, rate, s_max=25),
    )

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = [
            (scheme, rate, b.legit_in_legit, b.legit_in_attack, b.attack,
             b.utilization)
            for (scheme, rate), b in sorted(_done(results, names).items())
        ]
        return FigureOutput(
            ["scheme", "bot Mbps", "legit-legit", "legit-attack", "attack",
             "util"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob("fig08", units, finalize, (BandwidthBreakdown,))


def _fig09_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig09 import Fig09Result, Fig09Variant, run_fig09

    def unit(ctx: UnitContext):
        return run_fig09(settings)

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, ["fig09"])
        rows: List[Sequence] = []
        result = results.get("fig09")
        if result is not None:
            rows = [
                ["without aggregation",
                 mean(result.without_agg.small_domain_rates),
                 mean(result.without_agg.big_domain_rates),
                 result.without_agg.small_big_ratio],
                ["with aggregation",
                 mean(result.with_agg.small_domain_rates),
                 mean(result.with_agg.big_domain_rates),
                 result.with_agg.small_big_ratio],
            ]
        return FigureOutput(
            ["variant", "small-domain Mbps", "big-domain Mbps", "ratio"],
            rows,
            notes,
        )

    return FigureJob(
        "fig09", [("fig09", unit)], finalize, (Fig09Result, Fig09Variant)
    )


def _fig10_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..analysis.accounting import BandwidthBreakdown
    from ..experiments.fig10 import run_fig10

    names, units = _sweep(
        "fig10",
        [(s, fanout) for s in _SCHEMES for fanout in FIG10_FANOUTS],
        "{}@x{}",
        lambda scheme, fanout: run_fig10(
            settings, scheme, fanout, per_flow_rate_mbps=0.2, n_max=2
        ),
    )

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = [
            (scheme, fanout, b.legit_total, b.attack, b.utilization)
            for (scheme, fanout), b in sorted(_done(results, names).items())
        ]
        return FigureOutput(
            ["scheme", "fanout", "legit total", "attack", "util"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob("fig10", units, finalize, (BandwidthBreakdown,))


def _fig11_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..experiments.fig11 import TopologyStats, run_fig11

    names, units = _sweep(
        "fig11",
        [("localized",), ("dispersed",)],
        "{}",
        lambda placement: run_fig11(placement, variants=variants),
    )

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = [
            [placement, s.variant, s.n_as, s.n_attack_ases, s.red_links,
             round(s.bot_concentration_top_10pct, 3)]
            for (placement,), stats in _done(results, names).items()
            for s in stats
        ]
        return FigureOutput(
            ["placement", "variant", "ASes", "attack ASes", "red links",
             "bot concentration"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob("fig11", units, finalize, (list, TopologyStats))


# ----------------------------------------------------------------------
# internet-scale figures
# ----------------------------------------------------------------------
def _internet_job(
    figure: str, placement: str, settings: FunctionalSettings,
    variants: Variants,
) -> FigureJob:
    from ..experiments.fig13 import InternetRunSettings
    from ..inet.simulator import FluidResult

    iset = InternetRunSettings()
    runs = {
        label: (strategy, s_max) for label, strategy, s_max in iset.strategies
    }

    def unit(ctx: UnitContext, variant: str, label: str):
        from ..inet.scenarios import build_internet_scenario
        from ..inet.simulator import FluidSimulator
        from ..sanitize import install_sanitizer

        strategy, s_max = runs[label]
        scenario = build_internet_scenario(
            variant=variant,
            placement=placement,
            n_as=iset.n_as,
            n_legit_sources=iset.n_legit_sources,
            n_legit_ases=iset.n_legit_ases,
            n_bots=iset.n_bots,
            target_capacity=iset.target_capacity,
            seed=iset.seed,
            build_flow_links=False,
        )
        sim = FluidSimulator(
            scenario, strategy=strategy, s_max=s_max, seed=iset.seed
        )
        install_sanitizer(sim, ctx.sanitize)
        return sim.run(ticks=iset.ticks, warmup=iset.warmup)

    names = {
        (variant, label): f"{figure}:{variant}:{label}"
        for variant in variants
        for label in runs
    }
    units: List[Tuple[str, UnitFn]] = [
        (name, partial(unit, variant=variant, label=label))
        for (variant, label), name in names.items()
    ]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = [
            (variant, label, r.shares["legit_in_legit"],
             r.shares["legit_in_attack"], r.shares["attack"], r.utilization)
            for (variant, label), r in sorted(_done(results, names).items())
        ]
        return FigureOutput(
            ["variant", "strategy", "legit-legit", "legit-attack", "attack",
             "util"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob(figure, units, finalize, (FluidResult,))


# ----------------------------------------------------------------------
# faults study
# ----------------------------------------------------------------------
def _faults_job(settings: FunctionalSettings, variants: Variants) -> FigureJob:
    from ..chaos.campaign import Measurements, execute_campaign
    from ..chaos.slo import WindowShare
    from ..chaos.spec import AttackerSpec, CampaignSpec, FaultSpec, SloSpec
    from ..errors import InvariantViolation
    from ..sanitize import Violation
    from ..units import DEFAULT_SCALE

    sanitize = settings.sanitize or "off"
    ticks = DEFAULT_SCALE.seconds_to_ticks
    warmup = ticks(settings.warmup_seconds)
    phase = max(1, ticks(settings.measure_seconds) // 3)
    t1, flap = warmup + phase, warmup + phase + phase // 4
    # each cell is one fixed chaos campaign whose three windows are the
    # pre, during and post phases; the faults fire as the second opens.
    # Packet: a restart and a root.0 uplink flap over the window's middle
    # half, under build_tree_scenario(attack_kind="cbr")'s flood (60 bots
    # on each of its 6 attack leaves, scaled).  Fluid: a restart and the
    # busiest legitimate uplink at 30 % for the whole window.
    runs = {
        "packet": dict(
            warmup_ticks=warmup, window_ticks=phase, scale=settings.scale,
            faults=(FaultSpec("router_restart", t1),
                    FaultSpec("link_flap", flap, t1 + 3 * phase // 4 - flap)),
            attackers=(
                AttackerSpec("cbr", bots=max(1, round(60 * settings.scale))),
            ) * 6,
        ),
        "fluid": dict(
            warmup_ticks=100, window_ticks=100,
            faults=(FaultSpec("router_restart", 200),
                    FaultSpec("link_degrade", 200, 100, 0.3)),
        ),
    }

    def run(simulator: str, scheme: str) -> Measurements:
        measurements = execute_campaign(
            CampaignSpec(
                seed=settings.seed,
                simulator=simulator,
                n_windows=3,
                slo=SloSpec(sanitize=sanitize),
                scheme=scheme,
                **runs[simulator],
            )
        )
        if sanitize == "strict" and measurements.violations:
            first = measurements.violations[0]
            raise InvariantViolation(first.invariant, first.tick, first.detail)
        return measurements

    # a stateful defense against stateless bases, on each simulator
    names, units = _sweep(
        "faults",
        [("packet", s) for s in ("floc", "fairshare", "droptail")]
        + [("fluid", s) for s in ("floc", "nd")],
        "{}:{}",
        run,
    )

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = []
        for (simulator, scheme), m in _done(results, names).items():
            pre, during, post = (w.legit_share for w in m.windows)
            recovery = 1.0 if pre <= 1e-12 else post / pre
            rows.append(
                [simulator, scheme, round(pre, 4), round(during, 4),
                 round(post, 4), round(recovery, 3)]
            )
        return FigureOutput(
            ["simulator", "scheme", "pre", "during", "post", "recovery"],
            rows,
            _missing(results, names.values()),
        )

    return FigureJob(
        "faults", units, finalize, (Measurements, WindowShare, Violation)
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class Figure(NamedTuple):
    """A reproducible figure: its one-line title and its job builder."""

    title: str
    build: Callable[[FunctionalSettings, Variants], FigureJob]


#: Every figure ``repro run`` reproduces.  ``repro list``, the choices
#: of ``repro run``, the printed tables' titles and
#: :func:`build_figure_job` all read this table.
FIGURES: Dict[str, Figure] = {
    "fig02": Figure("packet service vs drop rate at a congested link",
                    _fig02_job),
    "fig03": Figure("packet-size distribution (synthetic trace)", _fig03_job),
    "fig04": Figure("TCP window synchronisation and token consumption",
                    _fig04_job),
    "fig06": Figure("attack confinement (tcp/cbr/shrew), per-path bandwidth",
                    _fig06_job),
    "fig07": Figure("robustness CDFs across schemes and attack strengths",
                    _fig07_job),
    "fig08": Figure("differential bandwidth guarantees vs attack rate",
                    _fig08_job),
    "fig09": Figure("legitimate-path aggregation", _fig09_job),
    "fig10": Figure("covert attacks vs per-bot fanout", _fig10_job),
    "fig11": Figure(
        "internet-scale topology statistics (localized/dispersed)",
        _fig11_job,
    ),
    "fig13": Figure("internet-scale bandwidth shares, localized attacks",
                    partial(_internet_job, "fig13", "localized")),
    "fig14": Figure("internet-scale bandwidth shares, dispersed attacks",
                    partial(_internet_job, "fig14", "dispersed")),
    "fig15": Figure("internet-scale bandwidth shares, separated placement",
                    partial(_internet_job, "fig15", "separated")),
    "faults": Figure(
        "graceful degradation under router restart + link faults",
        _faults_job,
    ),
}


def build_figure_job(
    figure: str,
    settings: FunctionalSettings,
    variants: Tuple[str, ...] = ("f-root",),
) -> FigureJob:
    """Build the unit-decomposed job for one figure.

    Every name in ``variants`` must be a skitter-map variant
    (:data:`repro.inet.skitter.VARIANTS`), whatever the figure, so a
    misspelt one is refused before any task runs.
    ``settings.sanitize`` propagates into every unit (functional figures
    install the sanitizer via their experiment entry points; internet
    figures install it per simulator).
    """
    try:
        build = FIGURES[figure].build
    except KeyError:
        raise ConfigError(
            f"unknown figure {figure!r}; choose one of {sorted(FIGURES)}"
        ) from None
    from ..inet.skitter import VARIANTS

    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise ConfigError(
            f"unknown variant(s) {unknown}; choose from {sorted(VARIANTS)}"
        )
    job = build(settings, variants)
    # the fingerprint excludes `sanitize`: invariant checking observes a
    # run without changing its numbers, so checkpoints stay compatible
    job.fingerprint = {
        "figure": figure,
        "result_format": result_format(job.results),
        "scale": settings.scale,
        "warmup_seconds": settings.warmup_seconds,
        "measure_seconds": settings.measure_seconds,
        "seed": settings.seed,
        "s_max": settings.s_max,
        "variants": list(variants),
    }
    return job


# ----------------------------------------------------------------------
# task recipes: what the scheduler runs, in-process or across a spawn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureUnitTask:
    """One cell of a figure sweep, by recipe."""

    figure: str
    unit: str
    settings: Dict[str, Any]
    variants: Tuple[str, ...] = ("f-root",)

    @property
    def name(self) -> str:
        return self.unit

    def run(self, ctx: UnitContext) -> Any:
        job = build_figure_job(
            self.figure,
            FunctionalSettings(**self.settings),
            variants=self.variants,
        )
        for name, fn in job.units:
            if name == self.unit:
                return fn(ctx)
        raise ConfigError(
            f"figure {self.figure!r} has no unit {self.unit!r}"
        )


def figure_tasks(
    figure: str,
    settings: FunctionalSettings,
    variants: Tuple[str, ...] = ("f-root",),
) -> List[FigureUnitTask]:
    """Tasks for one figure, in its job's canonical unit order."""
    job = build_figure_job(figure, settings, variants=variants)
    recipe = asdict(settings)
    return [
        FigureUnitTask(
            figure=figure,
            unit=name,
            settings=recipe,
            variants=tuple(variants),
        )
        for name, _ in job.units
    ]


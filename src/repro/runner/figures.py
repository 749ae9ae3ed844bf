"""Figure jobs: unit decompositions and the task recipes that run them.

Every figure's sweep is decomposed into independent *units* — one cell
of the sweep each (a (scheme, attack-rate) pair, a (variant, strategy)
pair, ...).  Each unit builds its scenario fresh and is deterministic
given the settings' seed, so:

* a killed job resumes by skipping checkpointed units and re-running
  only the incomplete ones, with bit-identical results;
* a failed unit (router bug, invariant violation) costs only its own
  cell — ``finalize`` assembles whatever completed into the figure's
  table and lists the missing cells in ``notes`` rather than discarding
  the run.

Internet-scale units additionally checkpoint *within* the unit at tick
granularity (see :func:`~repro.runner.resumable.run_checkpointed`) —
their single long fluid run is the most expensive thing the suite does.

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

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..experiments.common import FunctionalSettings, mean
from .supervisor import UnitContext

UnitFn = Callable[[UnitContext], Any]


@dataclass
class FigureOutput:
    """A finalized figure table plus free-form annotation lines."""

    headers: List[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)


@dataclass
class FigureJob:
    """A named, unit-decomposed figure experiment."""

    figure: str
    units: List[Tuple[str, UnitFn]]
    finalize: Callable[[Dict[str, Any]], FigureOutput]
    fingerprint: Dict[str, Any] = field(default_factory=dict)


def _finish_fluid_run(run: Any) -> Any:
    """Finalizer for checkpointed internet-scale units.

    Module-level (not a lambda) so the checkpointed state that references
    it stays picklable.
    """
    return run.sim.finish_run()


def _missing(results: Dict[str, Any], names: Sequence[str]) -> List[str]:
    gone = [name for name in names if name not in results]
    if not gone:
        return []
    return [f"missing unit (failed or not run): {name}" for name in gone]


# ----------------------------------------------------------------------
# functional figures
# ----------------------------------------------------------------------
def _fig02_job(settings: FunctionalSettings) -> FigureJob:
    def unit(ctx: UnitContext):
        from ..experiments.fig02 import run_fig02

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

    return FigureJob("fig02", [("fig02", unit)], finalize)


def _fig03_job(settings: FunctionalSettings) -> FigureJob:
    def unit(ctx: UnitContext):
        from ..experiments.fig03 import run_fig03

        return run_fig03(seed=settings.seed)

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        notes = _missing(results, ["fig03"])
        result = results.get("fig03")
        rows = sorted(result.mode_fractions.items()) if result else []
        return FigureOutput(["size (B)", "fraction"], rows, notes)

    return FigureJob("fig03", [("fig03", unit)], finalize)


def _fig04_job(settings: FunctionalSettings) -> FigureJob:
    def unit(ctx: UnitContext):
        from ..experiments.fig04 import run_fig04

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

    return FigureJob("fig04", [("fig04", unit)], finalize)


def _fig06_job(settings: FunctionalSettings) -> FigureJob:
    kinds = ("tcp", "cbr", "shrew")

    def make_unit(kind: str) -> UnitFn:
        def unit(ctx: UnitContext, kind=kind):
            from ..experiments.fig06 import run_fig06

            return run_fig06(kind, settings)

        return unit

    names = [f"fig06:{kind}" for kind in kinds]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = []
        for kind, name in zip(kinds, names):
            result = results.get(name)
            if result is None:
                continue
            rows.append(
                [
                    kind,
                    result.fair_path_mbps,
                    mean(result.legit_path_means),
                    mean(result.attack_path_means),
                ]
            )
        return FigureOutput(
            ["attack", "fair Mbps/path", "legit-path mean", "attack-path mean"],
            rows,
            _missing(results, names),
        )

    return FigureJob(
        "fig06",
        [(name, make_unit(kind)) for kind, name in zip(kinds, names)],
        finalize,
    )


def _fig07_job(settings: FunctionalSettings) -> FigureJob:
    schemes = ("floc", "pushback", "redpd")
    rates = (0.5, 1.0, 2.0, 4.0)
    units: List[Tuple[str, UnitFn]] = []
    for scheme in schemes:
        for rate in rates:

            def unit(ctx: UnitContext, scheme=scheme, rate=rate):
                from ..experiments.fig07 import run_fig07

                return run_fig07(
                    settings,
                    schemes=(scheme,),
                    attack_rates_mbps=(rate,),
                    include_red_reference=False,
                )

            units.append((f"fig07:{scheme}@{rate}", unit))

    def ref_unit(ctx: UnitContext):
        from ..experiments.fig07 import run_fig07

        return run_fig07(
            settings, schemes=(), attack_rates_mbps=(),
            include_red_reference=True,
        )

    units.append(("fig07:red-reference", ref_unit))
    names = [name for name, _ in units]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        from ..experiments.fig07 import Fig07Result

        merged = Fig07Result(ideal_flow_mbps=0.0)
        for name in names:
            part = results.get(name)
            if part is None:
                continue
            merged.samples.update(part.samples)
            merged.ideal_flow_mbps = max(
                merged.ideal_flow_mbps, part.ideal_flow_mbps
            )
        notes = _missing(results, names)
        if merged.ideal_flow_mbps:
            notes.append(
                f"ideal fair per-flow: {merged.ideal_flow_mbps:.3f} Mbps"
            )
        return FigureOutput(
            ["scheme", "bot Mbps", "mean", "p10", "p50", "p90"],
            merged.summary_rows(),
            notes,
        )

    return FigureJob("fig07", units, finalize)


def _fig08_job(settings: FunctionalSettings) -> FigureJob:
    schemes = ("floc", "pushback", "redpd")
    rates = (0.2, 0.4, 0.8, 1.6, 3.2, 4.0)
    s_max = 25
    units: List[Tuple[str, UnitFn]] = []
    for scheme in schemes:
        for rate in rates:

            def unit(ctx: UnitContext, scheme=scheme, rate=rate):
                from ..experiments.fig08 import run_fig08

                return run_fig08(
                    settings,
                    schemes=(scheme,),
                    attack_rates_mbps=(rate,),
                    s_max=s_max,
                )

            units.append((f"fig08:{scheme}@{rate}", unit))
    names = [name for name, _ in units]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        from ..experiments.fig08 import Fig08Result

        merged = Fig08Result(s_max=s_max)
        for name in names:
            part = results.get(name)
            if part is not None:
                merged.breakdowns.update(part.breakdowns)
        return FigureOutput(
            ["scheme", "bot Mbps", "legit-legit", "legit-attack", "attack",
             "util"],
            merged.rows(),
            _missing(results, names),
        )

    return FigureJob("fig08", units, finalize)


def _fig09_job(settings: FunctionalSettings) -> FigureJob:
    def unit(ctx: UnitContext):
        from ..experiments.fig09 import run_fig09

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

    return FigureJob("fig09", [("fig09", unit)], finalize)


def _fig10_job(settings: FunctionalSettings) -> FigureJob:
    schemes = ("floc", "pushback", "redpd")
    fanouts = (1, 2, 5, 10, 20)
    units: List[Tuple[str, UnitFn]] = []
    for scheme in schemes:
        for fanout in fanouts:

            def unit(ctx: UnitContext, scheme=scheme, fanout=fanout):
                from ..experiments.fig10 import run_fig10

                return run_fig10(settings, schemes=(scheme,), fanouts=(fanout,))

            units.append((f"fig10:{scheme}@x{fanout}", unit))
    names = [name for name, _ in units]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        from ..experiments.fig10 import Fig10Result

        merged: Optional[Fig10Result] = None
        for name in names:
            part = results.get(name)
            if part is None:
                continue
            if merged is None:
                merged = Fig10Result(
                    n_max=part.n_max,
                    per_flow_rate_mbps=part.per_flow_rate_mbps,
                )
            merged.breakdowns.update(part.breakdowns)
        rows = merged.rows() if merged is not None else []
        return FigureOutput(
            ["scheme", "fanout", "legit total", "attack", "util"],
            rows,
            _missing(results, names),
        )

    return FigureJob("fig10", units, finalize)


def _fig11_job(settings: FunctionalSettings, variants: Tuple[str, ...]) -> FigureJob:
    placements = ("localized", "dispersed")
    units: List[Tuple[str, UnitFn]] = []
    for placement in placements:

        def unit(ctx: UnitContext, placement=placement):
            from ..experiments.fig11 import run_fig11

            return run_fig11(placement, variants=variants)

        units.append((f"fig11:{placement}", unit))
    names = [name for name, _ in units]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = []
        for placement, name in zip(placements, names):
            stats = results.get(name)
            if stats is None:
                continue
            for s in stats:
                rows.append(
                    [placement, s.variant, s.n_as, s.n_attack_ases,
                     s.red_links, round(s.bot_concentration_top_10pct, 3)]
                )
        return FigureOutput(
            ["placement", "variant", "ASes", "attack ASes", "red links",
             "bot concentration"],
            rows,
            _missing(results, names),
        )

    return FigureJob("fig11", units, finalize)


# ----------------------------------------------------------------------
# internet-scale figures (tick-level checkpointing inside each unit)
# ----------------------------------------------------------------------
def _internet_job(
    figure: str, placement: str, variants: Tuple[str, ...]
) -> FigureJob:
    from ..experiments.fig13 import InternetRunSettings

    iset = InternetRunSettings()
    units: List[Tuple[str, UnitFn]] = []
    for variant in variants:
        for label, strategy, s_max in iset.strategies:

            def unit(
                ctx: UnitContext,
                variant=variant,
                label=label,
                strategy=strategy,
                s_max=s_max,
            ):
                from ..inet.scenarios import build_internet_scenario
                from ..inet.simulator import FluidSimulator
                from ..sanitize import install_sanitizer
                from .resumable import FluidRun

                def build() -> FluidRun:
                    scenario = build_internet_scenario(
                        variant=variant,
                        placement=placement,
                        n_as=iset.n_as,
                        n_legit_sources=iset.n_legit_sources,
                        n_legit_ases=iset.n_legit_ases,
                        n_bots=iset.n_bots,
                        target_capacity=iset.target_capacity,
                        seed=iset.seed,
                    )
                    sim = FluidSimulator(
                        scenario, strategy=strategy, s_max=s_max,
                        seed=iset.seed,
                    )
                    install_sanitizer(sim, ctx.sanitize)
                    return FluidRun(sim, ticks=iset.ticks, warmup=iset.warmup)

                return ctx.checkpointed(build, _finish_fluid_run)

            units.append((f"{figure}:{variant}:{label}", unit))
    names = [name for name, _ in units]
    keys = [
        (variant, label)
        for variant in variants
        for label, _, _ in iset.strategies
    ]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = []
        for (variant, label), name in sorted(zip(keys, names)):
            r = results.get(name)
            if r is None:
                continue
            rows.append(
                (
                    variant,
                    label,
                    r.shares["legit_in_legit"],
                    r.shares["legit_in_attack"],
                    r.shares["attack"],
                    r.utilization,
                )
            )
        return FigureOutput(
            ["variant", "strategy", "legit-legit", "legit-attack", "attack",
             "util"],
            rows,
            _missing(results, names),
        )

    return FigureJob(figure, units, finalize)


# ----------------------------------------------------------------------
# faults study
# ----------------------------------------------------------------------
def _faults_job(settings: FunctionalSettings) -> FigureJob:
    from ..experiments.robustness_faults import FLUID_STRATEGIES, PACKET_SCHEMES

    units: List[Tuple[str, UnitFn]] = []
    for scheme in PACKET_SCHEMES:

        def unit(ctx: UnitContext, scheme=scheme):
            from ..experiments.robustness_faults import run_packet_faults

            return run_packet_faults(settings, (scheme,))[0]

        units.append((f"faults:packet:{scheme}", unit))
    for strategy in FLUID_STRATEGIES:

        def unit(ctx: UnitContext, strategy=strategy):
            from ..experiments.robustness_faults import run_fluid_faults

            return run_fluid_faults(settings, (strategy,))[0]

        units.append((f"faults:fluid:{strategy}", unit))
    names = [name for name, _ in units]

    def finalize(results: Dict[str, Any]) -> FigureOutput:
        rows = []
        for name in names:
            entry = results.get(name)
            if entry is None:
                continue
            rows.append(
                [
                    entry.simulator,
                    entry.scheme,
                    round(entry.pre, 4),
                    round(entry.during, 4),
                    round(entry.post, 4),
                    round(entry.recovery_ratio, 3),
                ]
            )
        return FigureOutput(
            ["simulator", "scheme", "pre", "during", "post", "recovery"],
            rows,
            _missing(results, names),
        )

    return FigureJob("faults", units, finalize)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def build_figure_job(
    figure: str,
    settings: FunctionalSettings,
    variants: Tuple[str, ...] = ("f-root",),
) -> FigureJob:
    """Build the unit-decomposed job for one figure.

    ``settings.sanitize`` propagates into every unit (functional figures
    install the sanitizer via their experiment entry points; internet
    figures install it per simulator).
    """
    builders: Dict[str, Callable[[], FigureJob]] = {
        "fig02": lambda: _fig02_job(settings),
        "fig03": lambda: _fig03_job(settings),
        "fig04": lambda: _fig04_job(settings),
        "fig06": lambda: _fig06_job(settings),
        "fig07": lambda: _fig07_job(settings),
        "fig08": lambda: _fig08_job(settings),
        "fig09": lambda: _fig09_job(settings),
        "fig10": lambda: _fig10_job(settings),
        "fig11": lambda: _fig11_job(settings, variants),
        "fig13": lambda: _internet_job("fig13", "localized", variants),
        "fig14": lambda: _internet_job("fig14", "dispersed", variants),
        "fig15": lambda: _internet_job("fig15", "separated", variants),
        "faults": lambda: _faults_job(settings),
    }
    try:
        job = builders[figure]()
    except KeyError:
        raise ConfigError(
            f"unknown figure {figure!r}; choose one of {sorted(builders)}"
        ) from None
    # the fingerprint excludes `sanitize`: invariant checking observes a
    # run without changing its numbers, so checkpoints stay compatible
    job.fingerprint = {
        "figure": figure,
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


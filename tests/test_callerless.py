"""No definition in ``src/repro`` without a caller, apart from a written
keep-list.

A name scan over code, not a call graph.  For every function, class and
method defined in ``src/repro`` (dunder methods aside: the interpreter
calls those), it looks for the name among the identifiers the code of
``src/repro`` uses: names, attributes and imports.  Comments, docstrings
and other strings do not count, so a definition that is only written
about has no caller.  The result must equal ``KEEP`` exactly: a new
callerless definition fails this test, and so does a listed one that
gains a caller in ``src`` (take it off the list).
``docs/architecture.md`` gives the same list with the numbers the
paper-test entries assert.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``module:qualified name`` -> why it stays without a caller in ``src``
KEEP = {
    # a tests/paper test asserts a number the paper states with it
    "repro.core.dropfilter:DropRecordFilter.false_positive_ratio":
        "tests/paper/test_ablation_drop_filter.py: 0.5 M flows on four "
        "2^24 arrays -> 7.4e-7 false positives",
    "repro.core.dropfilter:DropRecordFilter.false_positive_with_selection":
        "tests/paper/test_ablation_drop_filter.py: 4 M flows, 3.5 M of "
        "them attack, k = 1 of 4 arrays -> below 1e-4 (3.8e-5)",
    "repro.tcp.validation:run_validation_sweep":
        "tests/paper/test_model_validation.py: the engine against the "
        "analytic TCP model, 4-32 flows",
    "repro.tcp.validation:ValidationPoint.drop_rate_ratio":
        "tests/paper/test_model_validation.py: measured/model drop rate "
        "in (0.3, 8), falling with multiplexing",
    "repro.tcp.validation:ValidationPoint.flow_count_ratio":
        "tests/paper/test_model_validation.py: Section V-B.1 flow "
        "estimate/actual in (0.3, 3)",
    "repro.traffic.scenarios:TreeScenario.legit_path_ids":
        "tests/paper/test_fig06_confinement.py: Fig. 6, every "
        "legitimate path within 0.5-2x of link/|paths|",
    "repro.units:UnitScale.megabytes_to_packets":
        "tests/test_units.py: the paper's 12 MB file is 8,000 packets",
    "repro.analysis.fairness:jain_index":
        "tests/paper/test_baselines_roundup.py: FLoc's legitimate rates "
        "keep a Jain index above 0.6",
    # a reference that a test compares against
    "repro.inet.simulator:FluidSimulator._upstream_survival":
        "tests/inet/fluid_oracle.py and the fluid lock tests",
    "repro.core.capability:CapabilityIssuer.verify":
        "the admission equivalence oracle (tests/sketch/churn.py) and "
        "the core.capability.verify_us micro-loop of "
        "benchmarks/e2e/layers.py",
    "repro.core.tokenbucket:PathTokenBucket.request":
        "the admission equivalence oracle "
        "(tests/core/test_admission_equivalence.py) and the "
        "core.tokenbucket.request_us micro-loop of benchmarks/e2e/layers.py",
    "repro.tcp.model:flow_bandwidth":
        "tests/tcp/test_model.py: the per-flow bandwidth equation",
    "repro.tcp.model:window_std":
        "tests/tcp/test_model.py: sigma of the aggregate window",
    # benchmarks/e2e or examples/ call it
    "repro.inet.shard:partition_scenario":
        "benchmarks/e2e/layers.py: inet.shard.partition_ms",
    "repro.inet.shard:BarrierExchange":
        "benchmarks/e2e/layers.py: inet.shard.allreduce_ms_p50",
    "repro.inet.shard:BarrierExchange.allreduce":
        "benchmarks/e2e/layers.py: inet.shard.allreduce_ms_p50",
    "repro.fleet.pool:FleetReport.completed":
        "examples/resume_demo.py and tests/runner/test_supervisor.py",
    "repro.analysis.timeseries:CategorySeriesMonitor.mean_rate":
        "examples/shrew_vs_floc.py",
    "repro.core.router:FLocPolicy.identified_attack_units":
        "examples/quickstart.py",
    # tests read or drive state through it
    "repro.trace.merge:MergedTrace.by_id":
        "tests/trace/test_merge.py, test_instrumentation.py",
    "repro.core.router:FLocPolicy.in_warmup":
        "tests/faults/test_policy_faults.py, test_injectors.py",
    "repro.core.router:FLocPolicy.warmup_until":
        "tests/faults/test_policy_faults.py",
    "repro.core.router:FLocPolicy.restore":
        "the snapshot round trips of tests/core/test_router.py, "
        "test_bounded_router.py, tests/sketch and tests/faults",
    "repro.faults.schedule:FaultSchedule.every":
        "tests/faults/test_schedule.py: recurring injectors",
    "repro.fleet.pool:FleetReport.failed":
        "tests/runner/test_supervisor.py",
    "repro.chaos.shrink:ShrinkResult.removed":
        "tests/chaos/test_shrink.py",
    "repro.telemetry.registry:TickSeries.pending_tick":
        "tests/net/test_engine_equivalence.py: the link monitor's "
        "unflushed group",
    "repro.telemetry.registry:TickSeries.pending_value":
        "tests/net/test_engine_equivalence.py, test_engine_extras.py, "
        "tests/telemetry/test_registry.py",
}


def _definitions(tree: ast.Module) -> List[Tuple[str, str]]:
    """``(qualified name, name)`` of every def and class in ``tree``."""
    out: List[Tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _identifiers(tree: ast.Module) -> Iterator[str]:
    """Every name, attribute and imported name the code of ``tree``
    uses; comments and strings are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def callerless() -> Dict[str, str]:
    """``module:qualified name`` -> path of each definition the scan
    finds no caller for."""
    used: Set[str] = set()
    scanned = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_identifiers(tree))
        rel = path.relative_to(SRC.parent)
        module = ".".join(rel.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        scanned.append((module, str(rel), _definitions(tree)))
    found = {}
    for module, rel, defs in scanned:
        for qualname, name in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in used:
                found[f"{module}:{qualname}"] = rel
    return found


def test_callerless_definitions_are_the_keep_list():
    assert sorted(callerless()) == sorted(KEEP)

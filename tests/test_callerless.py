"""No definition in ``src/repro`` without a caller, apart from a written
keep-list.

A name scan, not a call graph.  For every function, class and method
defined in ``src/repro`` outside ``repro.check`` (dunder methods aside:
the interpreter calls those), it counts the name as a word across every
file of ``src/repro`` — code, comments and docstrings alike.  A name
that appears no more often than it is defined has no caller in ``src``.
The result must equal ``KEEP`` exactly: a new callerless definition fails
this test, and so does a listed one that gains a caller in ``src`` (take
it off the list).  ``docs/architecture.md`` gives the same list with the
numbers the paper-test entries assert.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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
    # a reference that a test compares against
    "repro.inet.simulator:FluidSimulator._upstream_survival":
        "tests/inet/fluid_oracle.py and the fluid lock tests",
    # benchmarks/e2e or examples/ call it
    "repro.trace.merge:MergedTrace.by_id":
        "benchmarks/e2e/tests/test_transparency.py",
    "repro.analysis.timeseries:CategorySeriesMonitor.mean_rate":
        "examples/shrew_vs_floc.py",
    "repro.core.router:FLocPolicy.identified_attack_units":
        "examples/quickstart.py",
    # fault tests read router state through it
    "repro.core.router:FLocPolicy.in_warmup":
        "tests/faults/test_policy_faults.py, test_injectors.py",
    "repro.core.router:FLocPolicy.warmup_until":
        "tests/faults/test_policy_faults.py",
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


def callerless() -> Dict[str, str]:
    """``module:qualified name`` -> path of each definition the scan
    finds no caller for."""
    words: Counter = Counter()
    defined: Counter = Counter()
    scanned = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        words.update(_WORD.findall(text))
        defs = _definitions(ast.parse(text))
        defined.update(name for _, name in defs)
        rel = path.relative_to(SRC.parent)
        if rel.parts[1] != "check":
            module = ".".join(rel.with_suffix("").parts)
            module = module.removesuffix(".__init__")
            scanned.append((module, str(rel), defs))
    found = {}
    for module, rel, defs in scanned:
        for qualname, name in defs:
            dunder = name.startswith("__") and name.endswith("__")
            # each definition's own ``def``/``class`` line names it once
            if not dunder and words[name] <= defined[name]:
                found[f"{module}:{qualname}"] = rel
    return found


def test_callerless_definitions_are_the_keep_list():
    assert sorted(callerless()) == sorted(KEEP)

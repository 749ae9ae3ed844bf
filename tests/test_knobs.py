"""No parameter default in ``src/repro`` that nothing sets, apart from a
written keep-list.

A name scan over code, the sibling of ``tests/test_callerless.py``.  For
every ``def`` in ``src/repro`` (``__init__`` included) it lists the
parameters that have a default, and looks for a call that sets each one
among the calls in ``src``, ``tests``, ``benchmarks`` and ``examples``.
Calls are matched by name: ``f(...)`` and ``x.f(...)`` call every def
named ``f``; ``C(...)``, ``cls(...)`` inside class ``C`` and
``super().__init__(...)`` inside a subclass of ``C`` call ``C.__init__``;
``partial(f, ...)`` calls ``f``.  A keyword, a positional argument that
reaches the parameter, or a ``*``/``**`` splat sets it.  An argument that
only passes on a defaulted parameter of the enclosing ``src`` def
(``x=x``, never reassigned there), or a ``**kwargs`` that only passes on
the enclosing def's own, sets the parameter only if the enclosing one is
set.  The scan is blind to calls through a variable.

A default that nothing sets is a constant written as a parameter, and
each one doubles the configurations tests would have to cover.  The
result must equal ``KEEP`` exactly: a new unset default fails this test,
and so does a listed one that gains a caller (take it off the list).
``docs/architecture.md`` gives the same list.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples")

#: ``module:qualified name(parameter)`` -> why the default stays unset
KEEP = {
    # set through a variable the scan cannot follow
    "repro.inet.simulator:FluidSimulator.__init__(aggregation_interval)":
        "tests/inet/test_fluid_classes.py builds the simulator through "
        "cls(...) with aggregation_interval=",
    "repro.traffic.shrew:ShrewSource.__init__(stop_tick)":
        "tests/net/test_engine_equivalence.py builds its sources through "
        "side.source(ShrewSource)(...) with stop_tick=",
    # the fluid simulator's settings move in a change of their own
    "repro.inet.simulator:FluidSimulator.__init__(attack_flag_factor)":
        "one of the Section VII fluid settings, which move together with "
        "InternetRunSettings rather than one at a time",
    # a reference or a benchmark leaf that keeps its signature
    "repro.core.tokenbucket:PathTokenBucket.request(amount)":
        "the admission equivalence oracle's reference "
        "(tests/core/test_admission_equivalence.py); the router inlines "
        "the one-token request",
    "repro.inet.shard:BarrierExchange.__init__(poll_seconds)":
        "inet/shard.py is the benchmark's leaf (benchmarks/e2e/layers.py) "
        "and stays as the benchmark drives it",
}

Key = Tuple[str, str]  # (module:qualified name, parameter)
Site = Tuple[str, int, str]  # (file, line, def name)


class _Def:
    """One ``def``: its call name, positional parameters and defaults."""

    def __init__(self, key: str, node: ast.FunctionDef, cls: Optional[str]):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        self.key = key
        self.call_name = cls if node.name == "__init__" and cls else node.name
        self.positional = positional[1:] if cls and not static else positional
        first_default = len(positional) - len(args.defaults)
        self.defaulted = positional[first_default:] + [
            a.arg
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        self.named = set(positional) | {a.arg for a in args.kwonlyargs}
        self.varkw = args.kwarg.arg if args.kwarg else None


def _module(path: Path) -> str:
    rel = path.relative_to(SRC.parent)
    return ".".join(rel.with_suffix("").parts).removesuffix(".__init__")


def _definitions() -> Tuple[Dict[str, _Def], Dict[Site, str], Dict[str, List[str]]]:
    """Every def of ``src/repro`` by key, the key of each def site, and
    each class's base names."""
    defs: Dict[str, _Def] = {}
    sites: Dict[Site, str] = {}
    bases: Dict[str, List[str]] = {}

    def visit(node, prefix: str, module: str, rel: str, cls: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in child.bases
                    if isinstance(b, (ast.Name, ast.Attribute))
                ]
                visit(child, f"{prefix}{child.name}.", module, rel, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module}:{prefix}{child.name}"
                defs[key] = _Def(key, child, cls)
                sites[(rel, child.lineno, child.name)] = key
                visit(child, f"{prefix}{child.name}.", module, rel, None)
            else:
                visit(child, prefix, module, rel, cls)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = str(path.relative_to(ROOT))
        visit(tree, "", _module(path), rel, None)
    return defs, sites, bases


def _targets(
    call: ast.Call, cls: Optional[str], bases: Dict[str, List[str]]
) -> Tuple[List[str], List[ast.expr]]:
    """The def names a call reaches, and the positional arguments they
    receive."""
    func, args = call.func, list(call.args)
    if isinstance(func, ast.Name) and func.id == "partial" and args:
        func, args = args[0], args[1:]
    if isinstance(func, ast.Name):
        return [cls if func.id == "cls" and cls else func.id], args
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and cls:
            return bases.get(cls, []), args
        return [func.attr], args
    return [], args


def _calls() -> Iterator[Tuple[ast.Call, Optional[str], Optional[ast.AST], str]]:
    """Every call in the caller directories, with its enclosing class
    name, its enclosing def and its file."""

    def walk(node, cls, func, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, func, rel)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, cls, child, rel)
                continue
            if isinstance(child, ast.Call):
                yield child, cls, func, rel
            yield from walk(child, cls, func, rel)

    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield from walk(tree, None, None, str(path.relative_to(ROOT)))


def unset_defaults() -> Set[str]:
    """``module:qualified name(parameter)`` of every default the scan
    finds no setter for."""
    defs, sites, bases = _definitions()
    by_name: Dict[str, List[_Def]] = {}
    for d in defs.values():
        by_name.setdefault(d.call_name, []).append(d)
    set_keys: Set[Key] = set()
    # a parameter that a call only passes on -> the enclosing parameters
    passed_from: Dict[Key, Set[Key]] = {}

    for call, cls, func, rel in _calls():
        names, args = _targets(call, cls, bases)
        callees = [d for name in names for d in by_name.get(name, [])]
        if not callees:
            continue
        outer = (
            sites.get((rel, func.lineno, func.name)) if func is not None
            else None
        )
        own: Set[str] = set()
        own_varkw = None
        if outer is not None:
            reassigned = {
                node.id
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            own = set(defs[outer].defaulted) - reassigned
            own_varkw = defs[outer].varkw

        def mark(target: Key, value: Optional[ast.expr]) -> None:
            if isinstance(value, ast.Name) and value.id in own:
                passed_from.setdefault(target, set()).add((outer, value.id))
            else:
                set_keys.add(target)

        for callee in callees:
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    for param in callee.positional[i:]:
                        set_keys.add((callee.key, param))
                    break
                if i < len(callee.positional):
                    mark((callee.key, callee.positional[i]), arg)
            for kw in call.keywords:
                if kw.arg is None:
                    passes_on = (
                        isinstance(kw.value, ast.Name)
                        and kw.value.id == own_varkw
                    )
                    for param in callee.defaulted:
                        if passes_on:
                            passed_from.setdefault(
                                (callee.key, param), set()
                            ).add((outer, "**"))
                        else:
                            set_keys.add((callee.key, param))
                elif kw.arg in callee.named:
                    mark((callee.key, kw.arg), kw.value)
                elif callee.varkw is not None:
                    set_keys.add((callee.key, "**"))

    grew = True
    while grew:
        grew = False
        for target, sources in passed_from.items():
            if target not in set_keys and sources & set_keys:
                set_keys.add(target)
                grew = True

    return {
        f"{key}({param})"
        for key, d in defs.items()
        for param in d.defaulted
        if (key, param) not in set_keys
    }


def test_unset_defaults_are_the_keep_list():
    assert sorted(unset_defaults()) == sorted(KEEP)

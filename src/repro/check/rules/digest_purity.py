"""FLC011 — digest purity: impure values must not reach run digests.

The repo's reproducibility claims rest on content digests: checkpoint
payloads are pickled and sha256-hashed, and runs are compared byte for
byte.  Any *environment-dependent* value that reaches a digest input —
a wall-clock read, a pid, an env var, an ``os.listdir`` ordering, a
process-global RNG draw — makes two identical runs hash differently,
which does not fail loudly: the runs just stop being comparable.

FLC001 already flags wall-clock/RNG reads *lexically* inside the
simulation packages.  This rule is the interprocedural complement: it
follows the value.  A helper that returns ``os.getpid()`` taints its
callers' digests two calls away; a function that hashes its *parameter*
turns every call site into a sink for that argument.  Both directions
run to a fixpoint over per-function summaries
(:func:`repro.check.dataflow.fixpoint_summaries`):

* **sources** — wall clocks (shared with FLC001), pids, env vars,
  filesystem enumeration order, process-global RNG draws;
* **sanitizers** — ``sorted()`` (the blessed fix for listdir order);
* **sinks** — ``hashlib.*`` constructor arguments, ``.update()`` on a
  variable assigned from a ``hashlib`` constructor, checkpoint
  ``save(kind, name, obj)`` payloads — plus *derived* sinks: any
  project function whose parameter provably reaches one of the above.

Blind spots (documented in docs/architecture.md): taint stored on
``self`` in one method and read in another, taint through containers at
element granularity, call chains deeper than the fixpoint bound, and
methods invoked through instances the resolver cannot name.

Documented exemption: the span tracer (:mod:`repro.trace`) reads wall
clocks by design — through ``repro.trace.clock``, the FLC001 carve-out
— and its timestamps reach per-process JSONL text files only.  No
exemption entry is needed *here* because those values provably never
flow into a hashlib call or checkpoint ``save`` payload:
tracers pickle empty (``__getstate__`` erases all state, enforced by
FLC012) and the span-file writer is a plain text sink.  If a future
change routes a span timestamp into a digest input, this rule is
expected to fire — do not baseline such a finding away.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import resolve_call_name
from ..callgraph import FunctionInfo, SymbolTable
from ..dataflow import (
    FunctionSummary,
    SinkSpec,
    TaintPolicy,
    fixpoint_summaries,
)
from ..diagnostics import Diagnostic
from .determinism import NUMPY_RANDOM_OK, WALL_CLOCK_CALLS
from . import ProjectRule, register

#: resolved call name -> (taint kind, human detail)
IMPURE_CALLS: Dict[str, Tuple[str, str]] = {
    **{name: ("wall-clock", f"{name}()") for name in WALL_CLOCK_CALLS},
    "os.getpid": ("pid", "os.getpid()"),
    "os.getppid": ("pid", "os.getppid()"),
    "os.getenv": ("env", "os.getenv()"),
    "os.urandom": ("entropy", "os.urandom()"),
    "uuid.uuid1": ("entropy", "uuid.uuid1()"),
    "uuid.uuid4": ("entropy", "uuid.uuid4()"),
    "socket.gethostname": ("host", "socket.gethostname()"),
    "platform.node": ("host", "platform.node()"),
    "os.listdir": ("fs-order", "os.listdir() (unordered)"),
    "os.scandir": ("fs-order", "os.scandir() (unordered)"),
    "os.walk": ("fs-order", "os.walk() (unordered)"),
    "glob.glob": ("fs-order", "glob.glob() (unordered)"),
    "glob.iglob": ("fs-order", "glob.iglob() (unordered)"),
    **{
        f"random.{fn}": ("rng", f"random.{fn}() (process-global RNG)")
        for fn in (
            "random", "randint", "randrange", "choice", "choices",
            "shuffle", "sample", "uniform", "gauss", "getrandbits",
        )
    },
    **{
        f"numpy.random.{fn}": ("rng", f"numpy.random.{fn}() (legacy RNG)")
        for fn in (
            "random", "rand", "randn", "randint", "choice",
            "shuffle", "permutation", "normal", "uniform",
        )
        if f"numpy.random.{fn}" not in NUMPY_RANDOM_OK
    },
}

IMPURE_PREFIXES: Dict[str, Tuple[str, str]] = {
    "os.environ": ("env", "os.environ"),
}

#: ``sorted()`` is the blessed laundering step for filesystem order;
#: sorting a wall-clock value would slip through, a documented blind spot.
SANITIZERS = {"sorted"}


def _digest_update_calls(fn: ast.AST, aliases: Dict[str, str]) -> Set[int]:
    """ids of ``h.update(...)`` calls where ``h`` came from ``hashlib.*``."""
    digest_vars: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            resolved = resolve_call_name(node.value.func, aliases)
            if resolved is not None and resolved.startswith("hashlib."):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        digest_vars.add(target.id)
    if not digest_vars:
        return set()
    hits: Set[int] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in digest_vars
        ):
            hits.add(id(node))
    return hits


def _spellings(info: FunctionInfo, table: SymbolTable) -> Set[str]:
    """Call-site names that resolve to this function.

    The dataflow pass resolves callees through import aliases only, so
    a project function is recognisable by its full qualname (covered by
    from-imports and relative imports via
    :func:`~repro.check.callgraph.module_aliases`), its ``mod.func`` /
    ``Class.meth`` tail, and — when the simple name is unique in the
    project — the bare name and ``self.name``.
    """
    out = {info.qualname}
    parts = info.qualname.split(".")
    if len(parts) >= 2:
        out.add(".".join(parts[-2:]))
    if len(table.by_name.get(info.name, [])) == 1:
        out.add(info.name)
        if info.is_method:
            out.add(f"self.{info.name}")
            out.add(f"cls.{info.name}")
    return out


def _call_params(info: FunctionInfo) -> List[str]:
    """Parameter names in call-site positional order (self/cls dropped)."""
    args = info.node.args
    params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return params


@register
class DigestPurityRule(ProjectRule):
    rule_id = "FLC011"
    description = (
        "wall-clock, RNG, pid, env, and listdir-order values must not "
        "flow into run digests or checkpoint payloads (interprocedural)"
    )

    def check_project(self, project) -> Iterator[Diagnostic]:
        modules = project.iter_modules()
        if not modules:
            return
        table = SymbolTable.build(modules)
        update_sinks: Set[int] = set()
        functions: Dict[str, Tuple[ast.AST, Dict[str, str]]] = {}
        for info in table.functions.values():
            aliases = table.aliases.get(info.module, {})
            functions[info.qualname] = (info.node, aliases)
            update_sinks |= _digest_update_calls(info.node, aliases)

        def base_sinks() -> List[SinkSpec]:
            def direct(call, resolved, terminal):
                if resolved is not None and resolved.startswith("hashlib."):
                    return "a run digest"
                if id(call) in update_sinks:
                    return "a run digest"
                return None

            def payload(call, resolved, terminal):
                total = len(call.args) + len(call.keywords)
                if terminal == "save" and total >= 3:
                    return "a checkpoint payload"
                return None

            return [
                SinkSpec(match=direct, args="all"),
                SinkSpec(match=payload, args=[2], kwargs=("obj",)),
            ]

        def policy_factory(
            tainted_returns: Dict[str, Tuple[str, str]],
            summaries: Dict[str, FunctionSummary],
        ) -> TaintPolicy:
            tainted_calls: Dict[str, Tuple[str, str]] = {}
            for qualname, taint in tainted_returns.items():
                info = table.functions.get(qualname)
                if info is None:
                    continue
                for spelling in _spellings(info, table):
                    tainted_calls.setdefault(spelling, taint)
            sinks = base_sinks()
            for qualname, summary in summaries.items():
                if not summary.param_sinks:
                    continue
                info = table.functions.get(qualname)
                if info is None:
                    continue
                params = _call_params(info)
                spellings = _spellings(info, table)
                for param, labels in sorted(summary.param_sinks.items()):
                    if param not in params:
                        continue
                    index = params.index(param)
                    label = sorted(labels)[0]
                    sinks.append(
                        _derived_sink(spellings, index, param, label, info)
                    )
            return TaintPolicy(
                sources=dict(IMPURE_CALLS),
                source_prefixes=dict(IMPURE_PREFIXES),
                sanitizers=set(SANITIZERS),
                sinks=sinks,
                tainted_calls=tainted_calls,
            )

        summaries = fixpoint_summaries(functions, policy_factory)

        seen: Set[Tuple[str, int, str, str, str]] = set()
        for qualname in sorted(summaries):
            info = table.functions[qualname]
            module = project.get_module(info.module)
            if module is None:
                continue
            for hit in summaries[qualname].hits:
                key = (
                    module.relpath,
                    hit.line,
                    hit.sink,
                    hit.taint.kind,
                    hit.taint.detail,
                )
                if key in seen:
                    continue
                seen.add(key)
                yield self.diagnostic(
                    module,
                    hit.line,
                    hit.col,
                    f"{hit.taint.detail} [{hit.taint.kind}] flows into "
                    f"{hit.sink}; two identical runs will hash "
                    "differently and stop being comparable",
                    hint="derive the value from run config or tick "
                    "arithmetic; sorted() launders listdir order",
                )


def _derived_sink(
    spellings: Set[str],
    index: int,
    param: str,
    label: str,
    info: FunctionInfo,
) -> SinkSpec:
    qual_label = (
        f"{label} (via {info.name}({param}=...))"
        if label.startswith("a ")
        else label
    )

    def match(call, resolved, terminal):
        if resolved is not None and resolved in spellings:
            return qual_label
        return None

    return SinkSpec(match=match, args=[index], kwargs=(param,))

"""flocheck: build-time static analysis for the FLoc reproduction.

The runtime sanitizer (:mod:`repro.sanitize`) can only *witness* a
non-reproducible run after hours of simulation; this package *proves* the
absence of whole hazard classes before a single tick executes.  It parses
the ``repro`` tree with :mod:`ast` and runs a registry of pluggable rules,
each emitting structured diagnostics (rule id, severity, file:line, fix
hint).

Rule families
-------------
``FLC001``
    Determinism: wall-clock reads and unseeded global RNG use inside the
    simulation packages (``repro.net``, ``repro.inet``, ``repro.core``,
    ``repro.traffic``).
``FLC002``
    Checkpoint/pickle safety: lambdas or nested closures installed into
    state reachable from checkpointed objects (``EngineRun``/``FluidRun``
    wrappers, tasks handed to ``run_fleet``).
``FLC003``
    Float equality on rates, tokens, shares, and other continuous
    quantities.
``FLC004``
    Units consistency: additive arithmetic or comparisons between
    identifiers carrying mismatched unit suffixes (Mbps vs packets/tick,
    seconds vs ticks, ...), keyed off the :mod:`repro.units` conventions.
``FLC005``
    Mutable default arguments and aliased shared buffers in constructors.
``FLC006``
    Config drift: fields of ``FLocConfig``/``FunctionalSettings``
    cross-checked against the CLI flags in ``repro.cli`` and the
    configuration tables in ``docs/architecture.md``.
``FLC007``
    Spawn safety (lexical): module-global mutation inside functions of
    the multiprocess packages (``repro.fleet``, ``repro.runner``), where
    spawn workers silently diverge from the parent.
``FLC009``
    Cross-process write atomicity and *interprocedural* spawn safety:
    bare ``open(..., "w")`` without ``os.replace`` in modules other
    processes read concurrently, and global mutation in any function
    reachable from a spawn entrypoint through the call graph — beyond
    FLC007's lexical scope.
``FLC010``
    NumPy aliasing: array views (slices, ``reshape``/``ravel``/... )
    flowing into persisted state (checkpoint payloads, pickles), and
    in-place mutation of a buffer after it was persisted.
``FLC011``
    Digest purity (interprocedural taint): wall-clock, pid, env,
    entropy, hostname, fs-enumeration-order, or RNG values reaching a
    ``hashlib`` digest or persisted payload, traced across function
    boundaries via summaries.
``FLC099``
    Suppression hygiene (engine pseudo-rule): a ``disable=`` comment
    without a trailing reason — such comments are inert.

Suppression and baselines
-------------------------
A finding on a line carrying ``# flocheck: disable=FLC001 -- <reason>``
(comma lists and ``disable=all`` work too) is suppressed at the source.
The trailing ``-- <reason>`` is mandatory: a reasonless comment does not
suppress anything and is itself flagged as ``FLC099``.  Every
suppression in the tree is auditable via ``repro check
--show-suppressed``.  Findings that predate the checker are
*grandfathered* in a baseline file (``baseline.json`` next to this
package): they do not fail the build, but a baseline entry that no
longer matches any finding is itself an error under ``--strict`` — the
baseline can only shrink, never drift.

Entry points
------------
``python -m repro check [--strict]`` from the CLI — with ``--sarif OUT``
for a SARIF 2.1.0 export, ``--graph`` to dump the call-graph summary,
``--include-tests`` to widen the sweep over ``tests/`` and
``benchmarks/`` with a relaxed rule subset — or programmatically::

    from repro.check import Checker
    report = Checker.for_package().run()
    for diag in report.new_findings:
        print(diag.format())
"""

from .baseline import Baseline, BaselineEntry
from .diagnostics import Diagnostic, Severity
from .engine import Checker, CheckReport, SourceModule
from .rules import Rule, all_rules, get_rule, rule_catalog
from .sarif import report_to_sarif, write_sarif

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Checker",
    "CheckReport",
    "Diagnostic",
    "Rule",
    "Severity",
    "SourceModule",
    "all_rules",
    "get_rule",
    "report_to_sarif",
    "rule_catalog",
    "write_sarif",
]

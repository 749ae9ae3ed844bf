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
    state the scheduler pickles (tasks handed to ``run_fleet``, their
    stored results).
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
    Cross-process write atomicity: bare ``open(..., "w")`` without
    ``os.replace`` in modules other processes read concurrently.
``FLC012``
    Span hygiene: spans opened without a closing shape, and pickling or
    non-empty ``__getstate__`` inside ``repro.trace``.
``FLC099``
    Suppression hygiene (engine pseudo-rule): a ``disable=`` comment
    without a trailing reason (such comments are inert), or one that
    silenced no finding.

``FLC008``, ``FLC010`` and ``FLC011`` are retired; ids are not reused.

Suppression
-----------
A finding on a line whose comment reads ``flocheck: disable=FLC001 --
<reason>`` (comma lists and ``disable=all`` work too) is suppressed at
the source.  Only comments count: the same text inside a string does
nothing.  The trailing ``-- <reason>`` is mandatory: a reasonless comment
does not suppress anything and is itself flagged as ``FLC099``, as is a
suppression that silenced no finding of a rule that ran on its module —
so waivers cannot outlive their findings.  The waiver-lock test
(``tests/check/test_tree_clean.py``) lists every suppression in the
tree.

Entry points
------------
Tier-1 runs flocheck (``pytest tests/check``): the full-rule scan of
``src/repro`` and the relaxed scan of ``tests/`` and ``benchmarks/``.
Programmatically::

    from tests.check.flocheck import Checker
    report = Checker.for_package().run()
    for diag in report.findings:
        print(diag.format())
"""

from .diagnostics import Diagnostic, Severity
from .engine import Checker, CheckReport, SourceModule
from .rules import Rule, all_rules, get_rule

__all__ = [
    "Checker",
    "CheckReport",
    "Diagnostic",
    "Rule",
    "Severity",
    "SourceModule",
    "all_rules",
    "get_rule",
]

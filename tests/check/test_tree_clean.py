"""The shipped tree is clean under every rule, and every waiver is listed.

This is the drift lock: a new finding fails (fix it, or suppress it
with a reason), and so does a suppression whose finding is gone (the
engine reports it as ``FLC099``).  The relaxed sweep of ``tests/`` and
``benchmarks/`` is held clean the same way.
"""

from pathlib import Path

from tests.check.flocheck import Checker

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_tree_is_clean(tree_report):
    assert tree_report.findings == [], (
        "findings:\n" + "\n".join(d.format() for d in tree_report.findings)
    )


def test_every_rule_family_ran_over_the_tree(tree_report):
    ran = {rule.rule_id for rule in Checker.for_package().rules}
    assert {
        "FLC001", "FLC002", "FLC003", "FLC004", "FLC005", "FLC006",
        "FLC007", "FLC009", "FLC012",
    } <= ran
    assert tree_report.modules_checked > 50


def test_every_waiver_is_a_reasoned_comment(tree_report):
    # docstrings quoting the suppression syntax are not waivers
    assert [
        (relpath, sorted(record.ids))
        for relpath, record in tree_report.suppression_records
    ] == [("repro/fleet/merge.py", ["FLC003"])]
    assert all(
        record.well_formed for _, record in tree_report.suppression_records
    )
    assert [d.path for d in tree_report.suppressed] == ["repro/fleet/merge.py"]


def test_include_tests_widens_the_sweep():
    report = Checker.for_package(
        extra_roots=[REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    ).run()
    assert report.findings == [], (
        "findings:\n" + "\n".join(d.format() for d in report.findings)
    )
    # the widened sweep checks strictly more modules than the package
    assert report.modules_checked > 150
    # the registry's import-time write is the one waiver outside src
    assert sorted({d.path for d in report.suppressed}) == [
        "repro/fleet/merge.py", "tests/check/flocheck/rules/__init__.py",
    ]

"""The shipped baseline exactly matches the current tree's findings.

This is the drift lock: a new finding fails (fix it or baseline it with a
justification), and a baseline entry whose finding was fixed fails too
(delete the entry).  `repro check --strict` in CI enforces the same.
"""

from repro.check import Checker


def test_shipped_baseline_exactly_matches_tree():
    report = Checker.for_package().run()
    assert report.new_findings == [], (
        "unbaselined findings:\n"
        + "\n".join(d.format() for d in report.new_findings)
    )
    assert report.stale_baseline == [], (
        "stale baseline entries (finding fixed? delete the entry):\n"
        + "\n".join(e.describe() for e in report.stale_baseline)
    )
    assert report.strict_ok()


def test_every_rule_family_ran_over_the_tree():
    checker = Checker.for_package()
    ran = {rule.rule_id for rule in checker.rules}
    assert {
        "FLC001", "FLC002", "FLC003", "FLC004", "FLC005", "FLC006",
        "FLC007", "FLC009", "FLC010", "FLC011", "FLC012",
    } <= ran
    assert checker.run().modules_checked > 50

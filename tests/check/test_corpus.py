"""Mutation-corpus driver: each seeded defect is caught by its rule.

Every directory under ``tests/check/corpus/`` is one case: a fragment
of a ``repro`` package tree containing exactly one seeded defect, plus
an ``EXPECT.txt`` declaring which rule must fire and how many times.
The driver materialises the fragment as a real package, runs *only* the
three interprocedural rule families (FLC009–FLC011), and asserts the
expected rule fires the expected number of times — and that the other
two families stay silent, so each mutant is caught by exactly the
intended rule.

The corpus directory is excluded from ``--include-tests`` sweeps (the
engine skips any path with a ``corpus`` component): these files are
test *data* whose defects are the point.
"""

import shutil
from pathlib import Path

import pytest

from repro.check import Baseline, Checker
from repro.check.rules import get_rule

CORPUS = Path(__file__).parent / "corpus"
NEW_FAMILIES = ("FLC009", "FLC010", "FLC011")


def corpus_cases():
    return sorted(p for p in CORPUS.iterdir() if p.is_dir())


def materialise(case: Path, tmp_path: Path) -> Path:
    """Copy the case fragment into a package tree rooted at repro/."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(
        case, root, ignore=shutil.ignore_patterns("EXPECT.txt")
    )
    for directory in [root, *root.rglob("*")]:
        if directory.is_dir():
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
    return root


def expectation(case: Path):
    rule_id, count = (case / "EXPECT.txt").read_text().split()
    return rule_id, int(count)


@pytest.mark.parametrize(
    "case", corpus_cases(), ids=lambda case: case.name
)
def test_seeded_defect_caught_by_exactly_its_rule(case, tmp_path):
    expected_rule, expected_count = expectation(case)
    root = materialise(case, tmp_path)
    checker = Checker(
        root,
        rules=[get_rule(rule_id) for rule_id in NEW_FAMILIES],
        baseline=Baseline(),
    )
    report = checker.run()
    by_rule = {}
    for diag in report.new_findings:
        by_rule.setdefault(diag.rule_id, []).append(diag)
    assert expected_rule in by_rule, (
        f"{case.name}: {expected_rule} did not fire; "
        f"got {sorted(by_rule)}"
    )
    assert len(by_rule[expected_rule]) == expected_count, (
        f"{case.name}: expected {expected_count} {expected_rule} "
        f"finding(s), got {[d.format() for d in by_rule[expected_rule]]}"
    )
    others = {r: d for r, d in by_rule.items() if r != expected_rule}
    assert not others, (
        f"{case.name}: unrelated rules fired: "
        f"{ {r: [d.format() for d in ds] for r, ds in others.items()} }"
    )


def test_corpus_covers_every_new_family():
    seen = {expectation(case)[0] for case in corpus_cases()}
    assert seen == set(NEW_FAMILIES)


def test_corpus_has_three_or_more_cases_per_family():
    counts = {}
    for case in corpus_cases():
        rule_id, _ = expectation(case)
        counts[rule_id] = counts.get(rule_id, 0) + 1
    assert all(count >= 3 for count in counts.values()), counts

"""Engine behaviour: suppression, baselines, project rules, exit codes."""

import json
import textwrap

import pytest

from repro.check import Baseline, BaselineEntry, Checker
from repro.check.baseline import MatchResult
from repro.check.rules import get_rule
from repro.cli import main as cli_main
from repro.errors import ConfigError

BAD_NET_MODULE = """\
import time


def stamp():
    return time.time()
"""


def write_package(tmp_path, files):
    """Materialise {relpath: source} as a package tree rooted at repro/."""
    root = tmp_path / "src" / "repro"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        init = path.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("")
    return root


class TestSuppression:
    def test_disable_comment_suppresses(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=FLC001 -- test fixture
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        assert report.new_findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule_id == "FLC001"

    def test_disable_all(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=all -- test fixture
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        assert report.new_findings == []
        assert len(report.suppressed) == 1

    def test_other_rule_not_suppressed(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=FLC005 -- test fixture
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        assert [d.rule_id for d in report.new_findings] == ["FLC001"]


# Built by concatenation so this file never contains a literal
# reasonless suppression — the --include-tests sweep scans this very
# file, and the hygiene scan is line-based.
REASONLESS_SUPPRESS = "# " + "flocheck: disable="


class TestSuppressionHygiene:
    REASONLESS = {
        "net/mod.py": f"""\
            import time


            def stamp():
                return time.time()  {REASONLESS_SUPPRESS}FLC001
            """,
    }

    def test_reasonless_comment_is_inert(self, tmp_path):
        """A suppression without '-- <reason>' does not suppress."""
        root = write_package(tmp_path, self.REASONLESS)
        report = Checker(root, baseline=Baseline()).run()
        assert "FLC001" in [d.rule_id for d in report.new_findings]
        assert report.suppressed == []

    def test_reasonless_comment_emits_flc099(self, tmp_path):
        root = write_package(tmp_path, self.REASONLESS)
        report = Checker(root, baseline=Baseline()).run()
        hygiene = [d for d in report.new_findings if d.rule_id == "FLC099"]
        assert len(hygiene) == 1
        assert "reason" in hygiene[0].message

    def test_flc099_cannot_be_suppressed(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": f"""\
                import time


                def stamp():
                    return time.time()  {REASONLESS_SUPPRESS}all
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        assert "FLC099" in [d.rule_id for d in report.new_findings]

    def test_reasoned_comment_emits_nothing(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=FLC001 -- test fixture
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        assert report.new_findings == []

    def test_suppression_records_capture_reason_state(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": f"""\
                import time


                def good():
                    return time.time()  {REASONLESS_SUPPRESS}FLC001 -- test fixture


                def bad():
                    return time.time()  {REASONLESS_SUPPRESS}FLC001
                """,
        })
        report = Checker(root, baseline=Baseline()).run()
        records = {
            record.line: record
            for relpath, record in report.suppression_records
        }
        assert len(records) == 2
        well_formed = [r for r in records.values() if r.well_formed]
        assert len(well_formed) == 1
        assert well_formed[0].reason == "test fixture"
        assert all("FLC001" in r.ids for r in records.values())


class TestExtraRoots:
    EXTERNAL = {
        # FLC001 (wall-clock) material AND FLC007 (global mutation)
        # material in one external file
        "test_thing.py": """\
            import time

            _CACHE = {}


            def test_records():
                _CACHE["at"] = time.time()
            """,
    }

    def write_external(self, tmp_path):
        extra = tmp_path / "tests"
        extra.mkdir()
        for relpath, source in self.EXTERNAL.items():
            (extra / relpath).write_text(textwrap.dedent(source))
        return extra

    def test_external_modules_get_relaxed_rule_subset(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": "X = 1\n"})
        extra = self.write_external(tmp_path)
        report = Checker(
            root, baseline=Baseline(), extra_roots=[extra]
        ).run()
        external = [
            d for d in report.new_findings if d.path.startswith("tests/")
        ]
        rules = {d.rule_id for d in external}
        assert "FLC007" in rules  # relaxed subset still runs
        assert "FLC001" not in rules  # full subset does not

    def test_corpus_directories_are_excluded(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": "X = 1\n"})
        extra = self.write_external(tmp_path)
        corpus = extra / "corpus" / "case_a"
        corpus.mkdir(parents=True)
        (corpus / "mutant.py").write_text("import time\nT = time.time()\n")
        report = Checker(
            root, baseline=Baseline(), extra_roots=[extra]
        ).run()
        assert not any(
            "corpus" in d.path for d in report.new_findings
        )

    def test_missing_extra_root_is_config_error(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": "X = 1\n"})
        with pytest.raises(ConfigError):
            Checker(
                root,
                baseline=Baseline(),
                extra_roots=[tmp_path / "nope"],
            )


class TestBaseline:
    def test_round_trip_and_match(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": BAD_NET_MODULE})
        report = Checker(root, baseline=Baseline()).run()
        assert len(report.new_findings) == 1

        baseline = Baseline.from_findings(report.new_findings)
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        reloaded = Baseline.load(str(path))
        assert len(reloaded) == 1

        report2 = Checker(root, baseline=reloaded).run()
        assert report2.new_findings == []
        assert len(report2.baselined) == 1
        assert report2.stale_baseline == []
        assert report2.strict_ok()

    def test_baseline_survives_line_shift(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": BAD_NET_MODULE})
        baseline = Baseline.from_findings(
            Checker(root, baseline=Baseline()).run().new_findings
        )
        # unrelated edit above the finding shifts its line number
        (root / "net" / "mod.py").write_text(
            "# a new leading comment\n" + BAD_NET_MODULE
        )
        report = Checker(root, baseline=baseline).run()
        assert report.new_findings == []
        assert len(report.baselined) == 1

    def test_fixed_finding_makes_entry_stale(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": BAD_NET_MODULE})
        baseline = Baseline.from_findings(
            Checker(root, baseline=Baseline()).run().new_findings
        )
        (root / "net" / "mod.py").write_text("def stamp():\n    return 0\n")
        report = Checker(root, baseline=baseline).run()
        assert report.new_findings == []
        assert len(report.stale_baseline) == 1
        assert report.ok
        assert not report.strict_ok()

    def test_duplicate_entries_rejected(self):
        entry = BaselineEntry(rule="FLC001", path="a.py", line_content="x")
        with pytest.raises(ConfigError):
            Baseline([entry, entry])

    def test_count_semantics(self):
        entry = BaselineEntry(
            rule="FLC001", path="a.py", line_content="x", count=2
        )
        from repro.check.diagnostics import Diagnostic, Severity

        def d():
            return Diagnostic(
                rule_id="FLC001", severity=Severity.ERROR, path="a.py",
                line=1, col=0, message="m", line_content="x",
            )

        result = Baseline([entry]).match([d(), d(), d()])
        assert isinstance(result, MatchResult)
        assert len(result.baselined) == 2
        assert len(result.new) == 1  # third occurrence exceeds the count
        assert result.stale == []

        partial = Baseline([entry]).match([d()])
        assert len(partial.baselined) == 1
        assert partial.stale == [entry]  # undershooting the count is stale


class TestParseErrors:
    def test_syntax_error_is_flc000(self, tmp_path):
        root = write_package(tmp_path, {"net/broken.py": "def f(:\n"})
        report = Checker(root, baseline=Baseline()).run()
        assert [d.rule_id for d in report.new_findings] == ["FLC000"]


DRIFT_FILES = {
    "cli.py": textwrap.dedent("""\
        def build_parser(parser):
            parser.add_argument("--scale")
            parser.add_argument("--warmup")
            parser.add_argument("--seconds")
            parser.add_argument("--seed")
            parser.add_argument("--sanitize")
        """),
    "experiments/common.py": textwrap.dedent("""\
        from dataclasses import dataclass


        @dataclass
        class FunctionalSettings:
            scale: float = 1.0
            warmup_seconds: float = 4.0
            measure_seconds: float = 8.0
            seed: int = 1
            s_max: int = 25
            sanitize: str = "off"
        """),
    "core/config.py": textwrap.dedent("""\
        from dataclasses import dataclass


        @dataclass
        class FLocConfig:
            n_max: int = 2
            beta: float = 0.2
        """),
}

DRIFT_DOCS = textwrap.dedent("""\
    # Arch

    ## FLoc configuration reference

    | field | default | meaning |
    |---|---|---|
    | `n_max` | 2 | fanout limit |
    | `beta` | 0.2 | conformance EWMA |
    """)


class TestProjectRuleConfigDrift:
    FILES = DRIFT_FILES
    DOCS = DRIFT_DOCS

    def build(self, tmp_path, files=None, docs=DRIFT_DOCS):
        root = write_package(tmp_path, files or self.FILES)
        if docs is not None:
            docs_dir = tmp_path / "docs"
            docs_dir.mkdir(exist_ok=True)
            (docs_dir / "architecture.md").write_text(textwrap.dedent(docs))
        return Checker(root, rules=[get_rule("FLC006")], baseline=Baseline())

    def test_consistent_project_clean(self, tmp_path):
        assert self.build(tmp_path).run().new_findings == []

    def test_unmapped_settings_field_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["experiments/common.py"] = files["experiments/common.py"].replace(
            'sanitize: str = "off"',
            'sanitize: str = "off"\n    brand_new_knob: int = 0',
        )
        found = self.build(tmp_path, files=files).run().new_findings
        assert any("brand_new_knob" in d.message for d in found)

    def test_vanished_cli_flag_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["cli.py"] = files["cli.py"].replace(
            '    parser.add_argument("--seed")\n', ""
        )
        found = self.build(tmp_path, files=files).run().new_findings
        assert any("--seed" in d.message for d in found)

    def test_undocumented_config_field_flagged(self, tmp_path):
        docs = self.DOCS.replace("| `beta` | 0.2 | conformance EWMA |\n", "")
        found = self.build(tmp_path, docs=docs).run().new_findings
        assert any(
            "beta" in d.message and "missing from" in d.message for d in found
        )

    def test_stale_docs_row_flagged(self, tmp_path):
        docs = self.DOCS + "| `retired_knob` | 0 | gone |\n"
        found = self.build(tmp_path, docs=docs).run().new_findings
        assert any("retired_knob" in d.message for d in found)

    def test_missing_section_flagged(self, tmp_path):
        found = self.build(tmp_path, docs="# Arch\n\nno table\n").run().new_findings
        assert len(found) == 1
        assert "no 'FLoc configuration reference' section" in found[0].message

    def test_missing_docs_tree_skipped(self, tmp_path):
        # installed package without docs/: nothing to cross-check
        checker = self.build(tmp_path, docs=None)
        assert checker.run().new_findings == []


class TestCliCheck:
    def test_clean_tree_exits_zero(self, capsys):
        assert cli_main(["check"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_strict_clean_tree_exits_zero(self, capsys):
        assert cli_main(["check", "--strict"]) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("FLC001", "FLC002", "FLC003", "FLC004",
                        "FLC005", "FLC006", "FLC007",
                        "FLC009", "FLC010", "FLC011"):
            assert rule_id in out
        assert "FLC008" not in out  # retired with the shard layer, id not reused

    def test_stale_baseline_fails_strict_only(self, tmp_path, capsys):
        bogus = tmp_path / "baseline.json"
        bogus.write_text(json.dumps({
            "version": 1,
            "findings": [{
                "rule": "FLC001",
                "path": "repro/net/engine.py",
                "line_content": "this_line_does_not_exist()",
                "count": 1,
                "justification": "test fixture",
            }],
        }))
        assert cli_main(["check", "--baseline", str(bogus)]) == 0
        assert cli_main(["check", "--strict", "--baseline", str(bogus)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_unknown_path_is_config_error(self, capsys):
        assert cli_main(["check", "does/not/exist.py"]) == 2

    def test_subset_run(self, capsys):
        import repro.core
        core_dir = repro.core.__file__.rsplit("/", 1)[0]
        assert cli_main(["check", core_dir]) == 0

    def test_sarif_and_show_suppressed(self, tmp_path, capsys):
        out = tmp_path / "flocheck.sarif"
        assert cli_main(
            ["check", "--strict", "--sarif", str(out), "--show-suppressed"]
        ) == 0
        document = json.loads(out.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["tool"]["driver"]["name"] == "flocheck"
        text = capsys.readouterr().out
        # every in-tree suppression is listed, with its reason
        assert "suppression" in text
        assert "NO REASON" not in text

    def test_graph_mode(self, capsys):
        assert cli_main(["check", "--graph"]) == 0
        out = capsys.readouterr().out
        assert "functions" in out
        assert "spawn entrypoints" in out

    def test_include_tests_widens_the_sweep(self, capsys):
        assert cli_main(["check", "--strict", "--include-tests"]) == 0
        out = capsys.readouterr().out
        # the widened sweep checks strictly more modules than the package
        modules = int(out.split(" modules checked")[0].rsplit(None, 1)[-1])
        assert modules > 150

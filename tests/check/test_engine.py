"""Engine behaviour: suppression, extra roots, parse errors, project rules."""

import textwrap

import pytest

from repro.errors import ConfigError
from tests.check.flocheck import Checker
from tests.check.flocheck.rules import get_rule, known_rule_ids


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
        report = Checker(root).run()
        assert report.findings == []
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
        report = Checker(root).run()
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_other_rule_not_suppressed(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=FLC005 -- test fixture
                """,
        })
        report = Checker(root).run()
        # FLC001 still fires, and the FLC005 waiver that silenced nothing
        # is itself reported
        assert sorted(d.rule_id for d in report.findings) == [
            "FLC001", "FLC099",
        ]

    def test_string_literal_is_not_a_suppression(self, tmp_path):
        root = write_package(tmp_path, {
            "core/mod.py": """\
                def same(rate):
                    return rate == 0.5, "# flocheck: disable=FLC003 -- x"
                """,
        })
        report = Checker(root).run()
        assert [d.rule_id for d in report.findings] == ["FLC003"]
        assert report.suppressed == []
        assert report.suppression_records == []


REASONLESS_SUPPRESS = "# flocheck: disable="


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
        report = Checker(root).run()
        assert "FLC001" in [d.rule_id for d in report.findings]
        assert report.suppressed == []

    def test_reasonless_comment_emits_flc099(self, tmp_path):
        root = write_package(tmp_path, self.REASONLESS)
        report = Checker(root).run()
        hygiene = [d for d in report.findings if d.rule_id == "FLC099"]
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
        report = Checker(root).run()
        assert "FLC099" in [d.rule_id for d in report.findings]

    def test_reasoned_comment_emits_nothing(self, tmp_path):
        root = write_package(tmp_path, {
            "net/mod.py": """\
                import time


                def stamp():
                    return time.time()  # flocheck: disable=FLC001 -- test fixture
                """,
        })
        report = Checker(root).run()
        assert report.findings == []

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
        report = Checker(root).run()
        records = {
            record.line: record
            for relpath, record in report.suppression_records
        }
        assert len(records) == 2
        well_formed = [r for r in records.values() if r.well_formed]
        assert len(well_formed) == 1
        assert well_formed[0].reason == "test fixture"
        assert all("FLC001" in r.ids for r in records.values())


class TestUnusedSuppression:
    STALE = {
        "core/mod.py": """\
            def scale(rate):
                return rate * 2  # flocheck: disable=FLC003 -- was rate == 0.5
            """,
    }

    def test_waiver_that_silenced_nothing_is_flc099(self, tmp_path):
        root = write_package(tmp_path, self.STALE)
        report = Checker(root).run()
        assert [(d.rule_id, d.line) for d in report.findings] == [
            ("FLC099", 2),
        ]
        assert "FLC003 silenced no finding" in report.findings[0].message

    def test_retired_rule_id_is_flc099(self, tmp_path):
        root = write_package(tmp_path, {
            "core/mod.py": "X = 1  # flocheck: disable=FLC011 -- retired\n",
        })
        report = Checker(root, rules=[get_rule("FLC003")]).run()
        assert [d.rule_id for d in report.findings] == ["FLC099"]

    def test_rules_that_did_not_run_are_not_judged(self, tmp_path):
        root = write_package(tmp_path, {
            **self.STALE,
            # FLC001 is scoped to the simulation packages, not the runner
            "runner/mod.py": "X = 1  # flocheck: disable=FLC001 -- scope\n",
        })
        extra = tmp_path / "tests"
        extra.mkdir()
        # tests get the relaxed subset, which has no FLC003
        (extra / "test_x.py").write_text(
            "X = 1  # flocheck: disable=FLC003 -- fixture\n"
        )
        report = Checker(
            root, rules=[get_rule("FLC001"), get_rule("FLC005")],
            extra_roots=[extra],
        ).run()
        assert report.findings == []


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
        report = Checker(root, extra_roots=[extra]).run()
        external = [
            d for d in report.findings if d.path.startswith("tests/")
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
        report = Checker(root, extra_roots=[extra]).run()
        assert not any(
            "corpus" in d.path for d in report.findings
        )

    def test_missing_extra_root_is_config_error(self, tmp_path):
        root = write_package(tmp_path, {"net/mod.py": "X = 1\n"})
        with pytest.raises(ConfigError):
            Checker(root, extra_roots=[tmp_path / "nope"])


class TestParseErrors:
    def test_syntax_error_is_flc000(self, tmp_path):
        root = write_package(tmp_path, {"net/broken.py": "def f(:\n"})
        report = Checker(root).run()
        assert [d.rule_id for d in report.findings] == ["FLC000"]


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
        return Checker(root, rules=[get_rule("FLC006")])

    def test_consistent_project_clean(self, tmp_path):
        assert self.build(tmp_path).run().findings == []

    def test_unmapped_settings_field_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["experiments/common.py"] = files["experiments/common.py"].replace(
            'sanitize: str = "off"',
            'sanitize: str = "off"\n    brand_new_knob: int = 0',
        )
        found = self.build(tmp_path, files=files).run().findings
        assert any("brand_new_knob" in d.message for d in found)

    def test_vanished_cli_flag_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["cli.py"] = files["cli.py"].replace(
            '    parser.add_argument("--seed")\n', ""
        )
        found = self.build(tmp_path, files=files).run().findings
        assert any("--seed" in d.message for d in found)

    def test_undocumented_config_field_flagged(self, tmp_path):
        docs = self.DOCS.replace("| `beta` | 0.2 | conformance EWMA |\n", "")
        found = self.build(tmp_path, docs=docs).run().findings
        assert any(
            "beta" in d.message and "missing from" in d.message for d in found
        )

    def test_stale_docs_row_flagged(self, tmp_path):
        docs = self.DOCS + "| `retired_knob` | 0 | gone |\n"
        found = self.build(tmp_path, docs=docs).run().findings
        assert any("retired_knob" in d.message for d in found)

    def test_missing_section_flagged(self, tmp_path):
        found = self.build(tmp_path, docs="# Arch\n\nno table\n").run().findings
        assert len(found) == 1
        assert "no 'FLoc configuration reference' section" in found[0].message

    def test_missing_docs_tree_skipped(self, tmp_path):
        # installed package without docs/: nothing to cross-check
        checker = self.build(tmp_path, docs=None)
        assert checker.run().findings == []


class TestCliCheck:
    """The rule listing that ``check --list-rules`` printed, read from the
    registry it printed from."""

    def test_list_rules(self):
        listed = set(known_rule_ids())
        assert {
            "FLC001", "FLC002", "FLC003", "FLC004", "FLC005", "FLC006",
            "FLC007", "FLC009", "FLC012",
        } <= listed
        # retired ids are not reused
        assert not {"FLC008", "FLC010", "FLC011"} & listed

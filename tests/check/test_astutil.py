"""Direct coverage for the AST helpers every rule builds on."""

import ast

from tests.check.flocheck.astutil import (
    dotted_name,
    import_aliases,
    is_constant_name,
    resolve_call_name,
    terminal_identifier,
)


def expr(source):
    return ast.parse(source, mode="eval").body


class TestDottedName:
    def test_plain_name(self):
        assert dotted_name(expr("x")) == "x"

    def test_attribute_chain(self):
        assert dotted_name(expr("a.b.c")) == "a.b.c"

    def test_call_in_chain_is_none(self):
        assert dotted_name(expr("a().b")) is None

    def test_subscript_is_none(self):
        assert dotted_name(expr("a[0].b")) is None


class TestImportAliases:
    def test_plain_import(self):
        tree = ast.parse("import time")
        assert import_aliases(tree) == {"time": "time"}

    def test_import_as(self):
        tree = ast.parse("import numpy as np")
        assert import_aliases(tree) == {"np": "numpy"}

    def test_dotted_import_binds_head(self):
        tree = ast.parse("import os.path")
        assert import_aliases(tree) == {"os": "os"}

    def test_dotted_import_as_binds_full(self):
        tree = ast.parse("import os.path as osp")
        assert import_aliases(tree) == {"osp": "os.path"}

    def test_from_import(self):
        tree = ast.parse("from random import random as rnd")
        assert import_aliases(tree) == {"rnd": "random.random"}

    def test_relative_import_skipped(self):
        tree = ast.parse("from .shard import BarrierExchange")
        assert import_aliases(tree) == {}

    def test_star_import_skipped(self):
        tree = ast.parse("from os import *")
        assert import_aliases(tree) == {}


class TestResolveCallName:
    def test_alias_expansion(self):
        aliases = {"np": "numpy"}
        assert resolve_call_name(expr("np.random.rand"), aliases) == (
            "numpy.random.rand"
        )

    def test_bare_from_import(self):
        aliases = {"rnd": "random.random"}
        assert resolve_call_name(expr("rnd"), aliases) == "random.random"

    def test_unaliased_head_passes_through(self):
        assert resolve_call_name(expr("store.save"), {}) == "store.save"

    def test_dynamic_callee_is_none(self):
        assert resolve_call_name(expr("factory().save"), {}) is None


class TestTerminalIdentifier:
    def test_name(self):
        assert terminal_identifier(expr("rate")) == "rate"

    def test_attribute(self):
        assert terminal_identifier(expr("self.lambda_rate")) == "lambda_rate"

    def test_call_resolves_through_callee(self):
        assert terminal_identifier(expr("x.rate()")) == "rate"

    def test_literal_is_none(self):
        assert terminal_identifier(expr("3")) is None


class TestIsConstantName:
    def test_upper_is_constant(self):
        assert is_constant_name(expr("INFINITE_MTD"))

    def test_lower_is_not(self):
        assert not is_constant_name(expr("rate"))

    def test_attribute_terminal_counts(self):
        assert is_constant_name(expr("units.INFINITE_MTD"))

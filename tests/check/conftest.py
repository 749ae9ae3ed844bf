"""Shared fixtures for the flocheck tests."""

import pytest

from tests.check.flocheck import Checker


@pytest.fixture(scope="session")
def tree_report():
    """One whole-package run, shared by every test that reads the tree."""
    return Checker.for_package().run()

"""Every ``repro`` name an example imports exists.

The examples are read, not run: some of them run a simulation at import
time.  For each ``from repro... import name`` the module must import and
``name`` must be one of its attributes or submodules; for each
``import repro...`` the module must import.
"""

import ast
import importlib
from pathlib import Path
from typing import Iterator, Tuple

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def repro_imports(path: Path) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` per imported ``repro`` name; ``name`` is empty
    for a plain ``import``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                for alias in node.names:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, ""


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_repro_imports_resolve(path):
    imports = list(repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")

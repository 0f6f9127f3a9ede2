"""numpy is the package's only runtime dependency: every module imports
only the standard library, numpy and qrdr itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qrdr")
                 .glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qrdr"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_qrdr(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"line {line}: {root}" for line, root in _imported_roots(tree)
               if root not in ALLOWED]
    assert not foreign, f"{path.name} imports {foreign}"


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "engine.py", "cli.py"}

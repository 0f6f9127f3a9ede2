"""Only the CLI and the phase-file writer open files for writing.

Reports, checkpoints and CSV side files share one output convention, kept
by the JSON and CSV writers in ``cli.py``; ``tfim.py`` writes the phase
file its loader reads back.  Any other module that writes a file would be
a second copy of that convention.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qrdr")
                 .glob("*.py"))
WRITERS = {"cli.py", "tfim.py"}
WRITE_METHODS = {"write_text", "write_bytes", "tofile", "savetxt", "savez",
                 "savez_compressed"}


def _is_write_mode(node) -> bool:
    # a mode that is not a literal may write
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return True
    return any(ch in node.value for ch in "wax+")


def _writes(tree):
    """(line, call) of every call in ``tree`` that can write a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in WRITE_METHODS:
            yield node.lineno, name
        elif name == "open":
            # open(path, mode) and io.open(path, mode); Path.open(mode)
            pos = 1 if isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name) and func.value.id == "io"
            ) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[pos:pos + 1]
            if any(_is_write_mode(mode) for mode in modes):
                yield node.lineno, name


def _file_writes(path):
    return list(_writes(ast.parse(path.read_text(), filename=str(path))))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in WRITERS],
                         ids=lambda p: p.name)
def test_module_opens_no_file_for_writing(path):
    writes = _file_writes(path)
    assert not writes, f"{path.name} writes files at {writes}"


def test_the_guard_sees_the_writers():
    by_name = {p.name: p for p in SOURCES}
    for name in sorted(WRITERS):
        assert _file_writes(by_name[name]), f"no write found in {name}"
    tree = ast.parse("open(p, 'w')\nopen(p)\nPath(p).open('a')\n"
                     "p.write_text(s)\nopen(p, mode=m)\n")
    assert [line for line, _ in _writes(tree)] == [1, 3, 4, 5]

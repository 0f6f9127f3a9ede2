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


# every subcommand that draws random numbers but verify, on small inputs,
# in one interpreter; prints the modules of numpy.random's import chain
# that the run loaded
_PIPELINE = """
import sys
from qrdr import cli
out = sys.argv[1]
for argv in (["tfim-gen", "--n-sites", "4", "--count", "12", "--seed", "5"],
             ["qcnn-train", "--data", out + "/tfim_phase.jsonl", "--r", "4",
              "--epochs", "2", "--batch-size", "4"],
             ["reduce", "--r", "8"], ["sweep-c", "--r", "8"],
             ["qsvm", "--folds", "3", "--arm", "both", "--r", "8"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
print(*[name for name in ("numpy.random", "_hashlib") if name in sys.modules])
"""


def test_pipeline_runs_without_numpy_random(tmp_path):
    # numpy.random loads secrets, hashlib and OpenSSL, 5.3 MB of peak RSS;
    # the pipeline draws its Philox streams in-package instead
    import os
    import subprocess

    src = str(SOURCES[0].parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PIPELINE, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

"""Compile-memory room of each ``qrdr`` module (a script, not a test).

When no bytecode is cached, CPython 3.11 needs about 230 KB more to compile
a module past a size near 4,050 tokens, and the step shows in the peak RSS
of every subcommand; a smaller step of about 120 KB comes near 2,100
tokens.  For each module this script appends ten-token lines
``_pN = (1, 2, 3)`` to its source, two at a time, compiles each result in a
fresh interpreter under ``tracemalloc``, and reports every jump of the
compile peak: the lines that fit before it and its size.  The steps do not
follow the token count alone, so probe a module before growing it.

    python tests/compile_room.py              # every module of src/qrdr
    python tests/compile_room.py qcnn tfim    # some of them

A module is probed until its padded source passes TOKEN_LIMIT tokens, one
short-lived interpreter per two lines; the whole package takes about a
minute.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qrdr"

# a module is padded until it passes this many tokens, past the large step
TOKEN_LIMIT = 4_400

# a rise of the compile peak between two probes above this is a step; two
# plain lines add about 1 KB
STEP_BYTES = 60_000

_PEAK = """\
import sys, tracemalloc
source = sys.stdin.read()
tracemalloc.start()
compile(source, "probe", "exec")
print(tracemalloc.get_traced_memory()[1])
"""


def token_count(source: str) -> int:
    """Tokens of ``source`` as ``tokenize`` yields them."""
    return sum(1 for _ in tokenize.generate_tokens(io.StringIO(source).readline))


def compile_peak(source: str) -> int:
    """Peak bytes traced while a fresh interpreter compiles ``source``."""
    proc = subprocess.run([sys.executable, "-c", _PEAK], input=source,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def steps(source: str):
    """(peak with nothing appended, [(lines that fit, step bytes), ...])."""
    padded = source if source.endswith("\n") else source + "\n"
    base = last = compile_peak(padded)
    found, lines, tokens = [], 0, token_count(source)
    while tokens + 10 * lines < TOKEN_LIMIT:
        lines += 2
        padded += f"_p{lines - 1} = (1, 2, 3)\n_p{lines} = (1, 2, 3)\n"
        peak = compile_peak(padded)
        if peak - last > STEP_BYTES:
            found.append((lines - 2, peak - last))
        last = peak
    return base, found


def main(names) -> int:
    paths = ([PACKAGE / f"{name}.py" for name in names] if names
             else sorted(PACKAGE.glob("*.py")))
    print(f"{'module':<14}{'tokens':>7}{'peak KB':>9}  "
          "steps: lines that fit (+KB)")
    for path in paths:
        source = path.read_text()
        base, found = steps(source)
        shown = ", ".join(f"{n} (+{b / 1e3:.0f})" for n, b in found)
        print(f"{path.name:<14}{token_count(source):>7,}{base / 1e3:>9.0f}  "
              f"{shown or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

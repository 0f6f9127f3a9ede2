"""The README's Python examples run as written, and its flags are the CLI's."""

import argparse
import re
from pathlib import Path

from qrdr import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out


def _parser_flags() -> set:
    """Every long flag of every subcommand but --help."""
    flags = set()
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for flag in sub._actions:
                    flags.update(flag.option_strings)
    return {f for f in flags if f.startswith("--")} - {"--help"}


def test_readme_names_exactly_the_parser_flags():
    # the install section's flags are pip's, not qrdr's
    text = re.sub(r"\n## Install\n.*?(?=\n## )", "", README.read_text(),
                  flags=re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert named == _parser_flags()

"""Every numeric flag carries its own range rule in its type.

A flag typed as a bare ``int`` or ``float`` takes any number, which leaves
its range check to code elsewhere, away from the flag's declaration.
``--threads`` is exempt: ``choices=(1,)`` bounds it until the flag is
deleted.
"""

import argparse

from qrdr import cli

EXEMPT = {"threads"}


def _flags(parser):
    """(subcommand, action) of every flag of every subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for flag in sub._actions:
                    yield name, flag


def _bare_numbers(parser):
    return [f"{name} {flag.option_strings[0]}"
            for name, flag in _flags(parser)
            if flag.type in (int, float) and flag.dest not in EXEMPT]


def test_no_flag_takes_a_bare_number():
    assert _bare_numbers(cli.build_parser()) == []


def test_the_guard_sees_every_flag():
    parser = cli.build_parser()
    assert {name for name, _ in _flags(parser)} == {
        "reduce", "sweep-c", "qsvm", "tfim-gen", "qcnn-train", "verify"}
    toy = argparse.ArgumentParser()
    run = toy.add_subparsers().add_parser("run")
    run.add_argument("--n", type=int)
    run.add_argument("--x", type=float)
    run.add_argument("--threads", type=int, choices=(1,))
    run.add_argument("--k", type=cli._checked(int, lambda k: k > 0, "> 0"))
    assert _bare_numbers(toy) == ["run --n", "run --x"]

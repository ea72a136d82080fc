"""The README's command-line examples parse with the current CLI, so an option
the CLI no longer has cannot stay in them."""

import re
import shlex
from pathlib import Path

import pytest

from hamdecomp.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
SHELL_OPERATORS = {">", ">>", "<", "|", "&&", "||", ";", "&"}


def _command_line_examples():
    """Each ``hamdecomp`` command in the README's "Command line" block, as argv
    without the program name, redirections and anything after them."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        if tokens[:1] != ["hamdecomp"]:
            continue
        argv = []
        for token in tokens[1:]:
            if token in SHELL_OPERATORS:
                break
            argv.append(token)
        commands.append(argv)
    return commands


COMMANDS = _command_line_examples()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in COMMANDS} == {"gen", "solve", "verify", "bench"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{a[0]}-{i}" for i, a in enumerate(COMMANDS)])
def test_example_parses(argv, capsys):
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example {shlex.join(argv)!r} does not parse: "
                    f"{capsys.readouterr().err}")

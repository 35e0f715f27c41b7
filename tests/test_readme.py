"""The README's command lines parse with the CLI's own parser.

Every ``histcmi ...`` line in a bash block of README.md is parsed by
``cli.build_parser()``: loop variables of an enclosing ``for VAR in V1 ...``
take their first value and a ``> file`` redirect is dropped.  A flag or
subcommand in the README that the parser no longer knows fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from histcmi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Argument strings of the README's histcmi lines, loop variables bound."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S)
    commands = []
    for block in blocks:
        bound = {}
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            loop = re.match(r"for (\w+) in (.+?); do$", line)
            if loop:
                bound[loop.group(1)] = loop.group(2).split()[0]
            elif line == "done":
                bound.clear()
            elif line.startswith("histcmi "):
                line = line.split(">", 1)[0].rstrip()
                for var, value in bound.items():
                    line = line.replace(f"${var}", value)
                commands.append(line)
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]

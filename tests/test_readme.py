"""The README's examples run as written, so its names stay current."""

import re
import shlex
from pathlib import Path

from mograd.cli import _experiment_config, build_parser
from mograd.problems import get_problem

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_commands_parse():
    # the first code block of the CLI section, one command per line once
    # backslash continuations are joined; nothing is run
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("mograd ")]
    assert {argv[1] for argv in commands} == {"list", "run", "front", "flow", "trace"}
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        if args.verb != "list":
            get_problem(_experiment_config(args).problem)

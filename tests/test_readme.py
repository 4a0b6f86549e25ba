"""The README's examples run as written and its flag table matches the CLI,
so its names stay current, and the README and the docstrings state
contracts, not timings."""

import ast
import re
import shlex
from pathlib import Path

from mograd.cli import _FLAGS, _VERBS, _experiment_config, build_parser
from mograd.problems import get_problem

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# a measurement's marks: a microsecond figure, the host or versions it ran
# on, or how it was timed
TIMING = re.compile(
    r"\d ?(us|µs)\b|x86 host|2-core|Python 3\.\d+\.\d+|numpy \d+\.\d+\.\d+|timeit|alternating pairs"
)


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


def test_flag_table_matches_the_cli():
    # a verb's cell is "repeats" for a flag the verb lets repeat, "x" for any
    # other flag it reads, and blank otherwise; the key is the flag's dest
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| flag | config key |"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    (_, _, *verbs), _, *body = rows
    assert verbs == list(_VERBS)
    assert sorted(flag for flag, *_ in body) == sorted(_FLAGS)
    for flag, key, *cells in body:
        assert key == _FLAGS[flag].get("dest", flag[2:]), flag
        for verb, cell in zip(verbs, cells, strict=True):
            _, reads, repeats = _VERBS[verb]
            assert cell == ("repeats" if flag in repeats else "x" if flag in reads else ""), (flag, verb)


def test_no_timings_in_readme_or_docstrings():
    # measurements live with the change that made them, in CHANGES.md
    texts = {"README.md": README.read_text()}
    for path in sorted((ROOT / "src" / "mograd").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    texts[f"{path.name}:{getattr(node, 'name', 'module')}"] = doc
    found = {where: match.group(0) for where, text in texts.items() if (match := TIMING.search(text))}
    assert not found

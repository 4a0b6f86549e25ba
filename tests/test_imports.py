"""numpy is the only runtime dependency: every import under src/ is numpy,
the standard library or the package itself.  scipy may well be installed,
so an accidental import of it would pass every other test."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"numpy", "mograd"} | set(sys.stdlib_module_names)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    outside = sorted({name for name in _imported_modules(path)
                      if name.partition(".")[0] not in ALLOWED})
    assert not outside, f"{path.name} imports {', '.join(outside)}"

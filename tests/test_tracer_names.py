"""The bench's tracer patches names of the package by their strings: a
renamed function or a dropped import would fail only the traced bench run.
These tests read ``bench/tracer.py`` (they do not import or edit it) and
check that every name it reaches still exists."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tree():
    return ast.parse(TRACER.read_text(), str(TRACER))


def _patches():
    """The ``(module, attribute)`` keys of the tracer's ``_PATCHES``."""
    [node] = [
        node for node in ast.walk(_tree())
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_PATCHES" for t in node.targets)
    ]
    return [(ast.unparse(key.elts[0]), key.elts[1].value) for key in node.value.keys]


def _dotted_names():
    """Every outermost ``mograd.a.b...`` attribute chain of the tracer."""
    tree = _tree()
    # an attribute that is the value of another is part of a longer chain
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {
        text for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inner
        and (text := ast.unparse(node)).startswith("mograd.")
    }


def _resolve(dotted):
    parts = dotted.split(".")
    # the longest importable prefix is the module (``mograd`` at least); the
    # rest are attributes
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj


def test_every_patched_name_exists():
    patches = _patches()
    assert patches
    for module, attr in patches:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_every_package_name_the_tracer_reads_exists():
    names = _dotted_names()
    assert "mograd.harness._worker_problem.cache_clear" in names
    for dotted in sorted(names):
        _resolve(dotted)

"""The bench's tracer patches names of the package by their strings, and its
workloads probe a few more the same way: a renamed function or a dropped
import would fail only the bench run.  These tests read ``bench/tracer.py``
and ``bench/workloads.py`` (they do not import or edit them) and check that
every name they reach still exists."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _tree(path=TRACER):
    return ast.parse(path.read_text(), str(path))


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


def _probes():
    """The ``module.attr`` target of every ``_probe(module, "attr", ...)`` call
    of the workloads, its module spelled out through the file's imports."""
    tree = _tree(WORKLOADS)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c`` to ``a.b``
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                bound[alias.asname or target] = target
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    probes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_probe":
            root, dot, rest = ast.unparse(node.args[0]).partition(".")
            probes.append(f"{bound.get(root, root)}{dot}{rest}.{node.args[1].value}")
    return probes


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


def test_every_name_the_workloads_probe_exists():
    probes = _probes()
    assert {
        "mograd.harness.mavng_integrate",
        "mograd.harness.mavd_integrate",
        "mograd.harness.attach_merit",
    } <= set(probes)
    for dotted in probes:
        _resolve(dotted)

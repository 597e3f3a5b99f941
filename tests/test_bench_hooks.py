"""The names the sweep benchmark reaches into gbsopt through still exist.

``sweepbench/spans.py`` rebinds the attributes listed in ``TRACED`` and
``sweepbench/run.py`` calls a few public entry points; a renamed hook
would otherwise show only when a traced benchmark run crashes.  Both
files are read here, never edited.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import gbsopt

SWEEPBENCH = Path(__file__).resolve().parents[1] / "sweepbench"


def resolve(path):
    """The object at a dotted attribute path below the gbsopt package."""
    owner = gbsopt
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def traced_paths():
    spec = importlib.util.spec_from_file_location("sweepbench_spans", SWEEPBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [path for path, _, _ in spans.TRACED]


def run_entry_points():
    """Dotted paths below gbsopt that run.py reads (``harness`` is gbsopt.harness)."""
    found = set()
    for node in ast.walk(ast.parse((SWEEPBENCH / "run.py").read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in ("gbsopt", "harness"):
            prefix = ["harness"] if node.id == "harness" else []
            found.add(".".join(prefix + parts[::-1]))
    return sorted(found)


@pytest.mark.parametrize("path", traced_paths())
def test_traced_hook_resolves_to_a_callable(path):
    assert callable(resolve(path))


def test_run_entry_points_resolve():
    paths = run_entry_points()
    assert {
        "sample", "state_from_theta", "ThetaMatrix", "harness.ExperimentPlan.from_dict",
        "harness.run_experiment", "harness.verify_report",
    } <= set(paths)
    for path in paths:
        resolve(path)

"""The names the benchmarks reach into gbsopt through still exist.

``sweepbench/spans.py`` rebinds the attributes listed in ``TRACED``,
``sweepbench/run.py`` calls a few public entry points and builds a plan
from each of its ``WORKLOADS``, and ``tools/microbench.py`` times private
hooks of ``optim``; a renamed hook or train override would otherwise show
only when a benchmark run crashes.  Each workload's plan also runs here
once, as one of run.py's rounds but untimed, so that an exception in a
sweep, its resume or its verification shows in the tests first.  These
files are read here, never edited.
"""

import ast
import json
import importlib.util
from pathlib import Path

import pytest

import gbsopt

SWEEPBENCH = Path(__file__).resolve().parents[1] / "sweepbench"
MICROBENCH = Path(__file__).resolve().parents[1] / "tools" / "microbench.py"


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


def bench_workloads():
    """The ``WORKLOADS`` literal of run.py: a plan spec per workload name."""
    for node in ast.parse((SWEEPBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no WORKLOADS")


def microbench_names():
    """Dotted paths below gbsopt that microbench.py reaches: the names it
    imports from gbsopt, its ``optim.*`` attributes and the ``owner,
    "name"`` targets of its ``_run_figures`` calls."""
    found = set()
    for node in ast.walk(ast.parse(MICROBENCH.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gbsopt":
            prefix = node.module.removeprefix("gbsopt").lstrip(".")
            found.update(".".join(filter(None, (prefix, alias.name))) for alias in node.names)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_figures":
            *_, owner, name = node.args
            found.add(f"{ast.unparse(owner)}.{name.value}")
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "optim":
            found.add(f"optim.{node.attr}")
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


def test_microbench_names_resolve():
    paths = microbench_names()
    assert {
        "optim._adam_pass", "optim._Objective._cost", "optim.train", "optim.TrainConfig",
        "gaussian.covariance_blocks", "torontonian.full_distribution",
    } <= set(paths)
    for path in paths:
        resolve(path)


@pytest.mark.parametrize("name", sorted(bench_workloads()))
def test_bench_workload_plans_resolve(name):
    # as run.py builds them, with every run's config resolved for its size
    spec = bench_workloads()[name]
    plan = gbsopt.harness.ExperimentPlan.from_dict(dict(spec, base_seed=7))
    for f, g in plan.sizes:
        for alpha in plan.alphas:
            cfg = plan.train_config(alpha, seed=0).resolved(f * g)
            assert {key: getattr(cfg, key) for key in spec["train"]} == spec["train"]


@pytest.mark.parametrize("name", sorted(bench_workloads()))
def test_bench_workload_sweeps_resumes_and_verifies(name, tmp_path):
    # run.py's round at base seed 7: a fresh sweep, a resume pass that
    # rewrites no record, then verify_report; no run may record an error
    harness = gbsopt.harness
    plan = harness.ExperimentPlan.from_dict(dict(bench_workloads()[name], base_seed=7))
    harness.run_experiment(plan, tmp_path, workers=1)
    records = sorted((tmp_path / "runs").glob("*.json"))
    before = [(p.stat().st_mtime_ns, p.read_bytes()) for p in records]
    harness.run_experiment(plan, tmp_path, workers=1)
    assert sorted((tmp_path / "runs").glob("*.json")) == records
    assert [(p.stat().st_mtime_ns, p.read_bytes()) for p in records] == before
    assert harness.verify_report(tmp_path) > 0
    errors = [json.loads(text)["result"]["error"] for _, text in before]
    assert records and errors == [None] * len(records)

"""Batch experiment orchestration: sweeps, run records, success reports.

A sweep executes size x instance x alpha x restart training runs, each a
``RunTask`` that ends as one JSON record under ``runs/``, written by
``write_record`` (as is the record of ``gbsopt train``).  Records are
deterministic functions of the plan (timestamps and wall times live in a
separate ``metadata`` field), so re-running a finished or interrupted
sweep skips completed records by content hash and reproduces the same
report.  A run that raises records the exception as its ``error``; one
that hits ``max_seconds`` keeps its best theta, with ``error`` "timeout".

Report files:

* ``report.csv``    - N, alpha, threshold, success_fraction, n_instances
* ``runs.csv``      - one row per training run
* ``instances.csv`` - per (instance, alpha): best fidelity over restarts,
  success flags, evaluations used, wall time
* ``report.json``   - the same content plus the fully resolved plan

An instance counts as successful for (alpha, t) when any of its restarts
without an error reaches fidelity > t.
"""

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import zip_longest
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import CapacityError, GbsOptError
from .optim import DEFAULT_THRESHOLDS, TrainConfig, check_field_types, train
from .problems import (
    BRUTE_FORCE_CAP,
    FgaInstance,
    assemble_qubo,
    dump_instance,
    generate_instance,
    instance_filename,
)

__all__ = [
    "ExperimentPlan",
    "RunTask",
    "SuccessReport",
    "run_experiment",
    "verify_report",
    "write_record",
    "canonical_record_bytes",
    "default_sizes",
    "size_to_flights_gates",
]

RECORD_FORMAT_VERSION = 2
REPORT_FORMAT_VERSION = 2
REPORT_COLUMNS = ["n_modes", "alpha", "threshold", "success_fraction", "n_instances"]

#: TrainConfig defaults bar the per-run seed and alpha; sweeps pick the
#: optimizer per alpha ("auto") and cap each run's wall time
DEFAULT_TRAIN_OVERRIDES = {
    f.name: f.default for f in fields(TrainConfig) if f.name not in ("seed", "alpha")
} | {"optimizer": "auto", "max_seconds": 600.0}


def size_to_flights_gates(n):
    """Factor N as (flights, gates) with flights <= gates, flights maximal."""
    best = (1, n)
    for f in range(2, int(n**0.5) + 1):
        if n % f == 0:
            best = (f, n // f)
    return best


def default_sizes():
    return tuple(size_to_flights_gates(n) for n in (6, 8, 10, 12, 14, 16))


def _normalize_sizes(sizes):
    out = []
    for entry in sizes:
        if isinstance(entry, int):
            if entry < 1:
                raise ValueError(f"sizes: mode count {entry} is below 1")
            entry = size_to_flights_gates(entry)
        f, g = (int(v) for v in entry)
        if f < 1 or g < 1:
            raise ValueError(f"sizes: {f}x{g} needs at least one flight and one gate")
        out.append((f, g))
    return tuple(out)


def _reject_collisions(what, values, name):
    """Raise ValueError when two of ``values`` share one ``name``."""
    names = [name(value) for value in values]
    clashes = sorted({value for value, n in zip(values, names) if names.count(n) > 1})
    if clashes:
        raise ValueError(f"{what} repeat or collide in file and column names: {clashes}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one sweep needs; fields mirror the CLI flags.  Checked
    whole on construction, so no sweep starts on a plan that fails later."""

    sizes: tuple = field(default_factory=default_sizes)
    instances_per_size: int = 50
    restarts: int = 5
    alphas: tuple = (0.01, 0.1, 0.25, 1.0)
    thresholds: tuple = DEFAULT_THRESHOLDS
    base_seed: int = 2023
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            object.__setattr__(self, "sizes", _normalize_sizes(self.sizes))
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
            object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        except TypeError as exc:
            raise ValueError(f"malformed sizes, alphas or thresholds: {exc}") from exc
        check_field_types(self)
        if self.instances_per_size < 1 or self.restarts < 1:
            raise ValueError("instance and restart counts must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed = {self.base_seed} must be >= 0")
        if not self.sizes:
            raise ValueError("at least one size is required")
        for f, g in self.sizes:
            if f * g > BRUTE_FORCE_CAP:
                raise CapacityError(
                    f"size {f}x{g} exceeds the {BRUTE_FORCE_CAP}-mode solver cap"
                )
        # record files are named a{alpha:g}, report columns success_{t:g}
        _reject_collisions("sizes", self.sizes, str)
        _reject_collisions("alphas", self.alphas, "{:g}".format)
        _reject_collisions("thresholds", self.thresholds, "{:g}".format)
        unknown = set(self.train) - set(DEFAULT_TRAIN_OVERRIDES)
        if unknown:
            raise ValueError(f"unknown train override(s): {sorted(unknown)}")
        merged = dict(DEFAULT_TRAIN_OVERRIDES)
        merged.update(self.train)
        object.__setattr__(self, "train", merged)
        for alpha in self.alphas:
            self.train_config(alpha, seed=0)  # rejects bad train values up front

    def train_config(self, alpha, seed):
        """The TrainConfig of this plan's runs at ``alpha`` with train seed ``seed``."""
        overrides = dict(self.train)
        if overrides["optimizer"] == "auto":
            exact_mean = alpha == 1.0 and overrides["shots_k"] == 0
            overrides["optimizer"] = "adam" if exact_mean else "cobyla"
        return TrainConfig(seed=seed, alpha=alpha, **overrides)

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown plan field(s): {sorted(unknown)}")
        return cls(**data)

    def to_dict(self):
        d = asdict(self)
        d["sizes"] = [list(s) for s in self.sizes]
        d["alphas"] = list(self.alphas)
        d["thresholds"] = list(self.thresholds)
        return d


def _derive_seed(*components):
    ss = np.random.SeedSequence(tuple(int(c) for c in components))
    return int(ss.generate_state(1, np.uint64)[0])


def _instance_seeds(plan):
    """(flights, gates, instance seed) of each of the plan's instances, in plan order."""
    for n_flights, n_gates in plan.sizes:
        for idx in range(plan.instances_per_size):
            yield n_flights, n_gates, _derive_seed(plan.base_seed, n_flights, n_gates, idx)


def _plan_runs(plan):
    """(instance seed, alpha, restart, record file name) of each run, in plan order."""
    for n_flights, n_gates, seed in _instance_seeds(plan):
        instance_id = f"{n_flights * n_gates}_{seed}"  # the instance file's stem
        for alpha in plan.alphas:
            for restart in range(plan.restarts):
                yield seed, alpha, restart, f"{instance_id}_a{alpha:g}_r{restart}.json"


def write_instances(plan, out_dir: Path):
    """Generate the plan's instances into ``out_dir``, in plan order.

    Returns {instance seed: (instance, path)}.  A file is written only
    when it is missing or its text differs, so resuming a sweep leaves the
    instance files untouched.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    for n_flights, n_gates, seed in _instance_seeds(plan):
        instance = generate_instance(n_flights, n_gates, seed)
        path = out_dir / instance_filename(instance)
        text = dump_instance(instance)
        if not path.exists() or path.read_text() != text:
            _atomic_write(path, text)
        out[seed] = (instance, path)
    return out


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunTask:
    """One training run and its record file; ``cfg`` is resolved for the instance's size."""

    instance: FgaInstance
    instance_file: str
    cfg: TrainConfig
    thresholds: tuple
    record_path: Path
    restart: int = 0

    @property
    def run(self):
        """The record's ``run`` block."""
        return {
            "instance_id": Path(self.instance_file).stem,
            "instance_file": self.instance_file,
            "n_modes": self.instance.n_modes,
            "n_flights": self.instance.n_flights,
            "n_gates": self.instance.n_gates,
            "alpha": float(self.cfg.alpha),
            "restart": self.restart,
        }

    @property
    def config(self):
        """The record's ``config`` block: the TrainConfig's fields and the thresholds."""
        return asdict(self.cfg) | {"thresholds": [float(t) for t in self.thresholds]}

    @property
    def config_sha256(self):
        """Content hash of the record's run and config blocks; keys resumption."""
        blocks = {"run": self.run, "config": self.config}
        return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()


def write_record(task, trained, wall_time_s):
    """Write the record of ``task`` to its record file and return it.

    ``trained`` is the run's TrainRecord, or the message of the exception
    it raised.  A timed-out run keeps its best theta and fidelity, and
    carries ``error`` "timeout".  The record is deterministic apart from
    its metadata block.
    """
    if isinstance(trained, str):
        result = {
            "best_theta": None,
            "cost_trace": [],
            "n_evals": 0,
            "final_fidelity": 0.0,
            "success": {str(float(t)): False for t in task.thresholds},
            "timed_out": False,
            "error": trained,
        }
    else:
        result = {
            "best_theta": trained.best_theta.entries.tolist(),
            "cost_trace": [[int(i), float(c)] for i, c in trained.cost_trace],
            "n_evals": int(trained.n_evals),
            "final_fidelity": float(trained.final_fidelity),
            "success": {str(t): bool(v) for t, v in sorted(trained.success.items())},
            "timed_out": bool(trained.timed_out),
            "error": "timeout" if trained.timed_out else None,
        }
    record = {
        "format_version": RECORD_FORMAT_VERSION,
        "kind": "train_record",
        "run": task.run,
        "config": task.config,
        "result": result,
        "metadata": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": wall_time_s,
        },
        "config_sha256": task.config_sha256,
    }
    _atomic_write(task.record_path, json.dumps(record, indent=1) + "\n")
    return record


def canonical_record_bytes(record):
    """Serialized record with the metadata block removed: the byte
    sequence that determinism guarantees cover."""
    body = {k: v for k, v in record.items() if k != "metadata"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def execute_run(task):
    """Run one training task and write its record file.  Returns a summary.

    Any exception is captured into the record as an error tag; a sweep
    never aborts because a single run failed.
    """
    started = time.monotonic()
    try:
        trained = train(assemble_qubo(task.instance), task.cfg, task.thresholds)
    except Exception as exc:  # noqa: BLE001 - partial-failure policy
        trained = f"{type(exc).__name__}: {exc}"
    return _summary_from_record(write_record(task, trained, time.monotonic() - started))


def _summary_from_record(record):
    result = record["result"]
    run = record["run"]
    return {
        "n_modes": run["n_modes"],
        "n_flights": run["n_flights"],
        "n_gates": run["n_gates"],
        "instance_id": run["instance_id"],
        "alpha": run["alpha"],
        "restart": run["restart"],
        "final_fidelity": result["final_fidelity"],
        "success": dict(result["success"]),
        "n_evals": result["n_evals"],
        "wall_time_s": record.get("metadata", {}).get("wall_time_s", 0.0),
        "error": result["error"],
    }


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------


def _build_tasks(plan, out_dir: Path):
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    instances = write_instances(plan, out_dir / "instances")
    tasks = []
    for seed, alpha, restart, record_name in _plan_runs(plan):
        instance, path = instances[seed]
        # records carry the size-resolved config (max_evals filled in),
        # which also feeds the resume hash
        cfg = plan.train_config(alpha, _derive_seed(seed, restart)).resolved(instance.n_modes)
        tasks.append(
            RunTask(instance, path.name, cfg, plan.thresholds, runs_dir / record_name, restart)
        )
    return tasks


def _resume_summary(task):
    """Summary from an existing record if it matches the task, else None."""
    try:
        record = json.loads(task.record_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if record.get("config_sha256") != task.config_sha256:
        return None
    return _summary_from_record(record)


def resolve_workers(workers=None):
    """The worker count: ``workers`` if given, else the CPU count.

    A given count must be an integer >= 1, and not a bool; anything else
    raises ValueError."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, Integral) or workers < 1:
        raise ValueError(f"workers = {workers!r} must be an integer >= 1")
    return int(workers)


def run_experiment(plan, out_dir, workers=None):
    """Execute a sweep (resuming where possible) and write the report.

    The worker count is checked before any file is written.  With more
    than one worker, pending runs go to a process pool; its workers are
    forked, so one whose parent never ran COBYLA imports scipy on its own
    first COBYLA run, once per worker per sweep (0.55 s on one core of a
    shared Intel Xeon host).
    """
    workers = resolve_workers(workers)
    out_dir = Path(out_dir)
    tasks = _build_tasks(plan, out_dir)
    resumed = [_resume_summary(task) for task in tasks]
    summaries = [summary for summary in resumed if summary is not None]
    pending = [task for task, summary in zip(tasks, resumed) if summary is None]
    if pending:
        if workers == 1:
            summaries.extend(execute_run(task) for task in pending)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                summaries.extend(pool.map(execute_run, pending))
    report = build_report(plan, summaries)
    write_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# aggregation and report files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuccessReport:
    """Aggregated sweep outcome: success fractions plus detail rows."""

    plan: ExperimentPlan
    rows: tuple  # (n_modes, alpha, threshold, success_fraction, n_instances)
    instance_rows: tuple
    run_rows: tuple
    n_errors: int

    def fraction(self, n_modes, alpha, threshold):
        for row in self.rows:
            if (
                row["n_modes"] == n_modes
                and row["alpha"] == alpha
                and row["threshold"] == threshold
            ):
                return row["success_fraction"]
        raise KeyError((n_modes, alpha, threshold))


def build_report(plan, summaries):
    """Pure aggregation of run summaries into a SuccessReport."""
    run_rows = sorted(
        summaries,
        key=lambda s: (s["n_modes"], s["instance_id"], s["alpha"], s["restart"]),
    )
    by_instance = {}
    for s in run_rows:
        key = (s["n_modes"], s["instance_id"], s["alpha"])
        by_instance.setdefault(key, []).append(s)

    instance_rows = []
    for (n_modes, instance_id, alpha), runs in sorted(by_instance.items()):
        # a run with an error (a timeout included) counts as fidelity 0
        clean = [r for r in runs if not r["error"]]
        row = {
            "n_modes": n_modes,
            "instance_id": instance_id,
            "alpha": alpha,
            "best_fidelity": max((r["final_fidelity"] for r in clean), default=0.0),
            "n_evals": sum(r["n_evals"] for r in runs),
            "wall_time_s": sum(r["wall_time_s"] for r in runs),
            "n_errors": len(runs) - len(clean),
        }
        for t in plan.thresholds:
            row[f"success_{t:g}"] = any(r["success"].get(str(t), False) for r in clean)
        instance_rows.append(row)

    rows = []
    sizes_n = sorted({f * g for f, g in plan.sizes})
    for n_modes in sizes_n:
        for alpha in plan.alphas:
            group = [
                r
                for r in instance_rows
                if r["n_modes"] == n_modes and r["alpha"] == alpha
            ]
            for t in plan.thresholds:
                wins = sum(1 for r in group if r[f"success_{t:g}"])
                rows.append(
                    {
                        "n_modes": n_modes,
                        "alpha": alpha,
                        "threshold": t,
                        "success_fraction": wins / len(group) if group else 0.0,
                        "n_instances": len(group),
                    }
                )
    n_errors = sum(1 for s in run_rows if s["error"])
    return SuccessReport(
        plan=plan,
        rows=tuple(rows),
        instance_rows=tuple(instance_rows),
        run_rows=tuple(run_rows),
        n_errors=n_errors,
    )


def _csv_text(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_report(report, out_dir):
    out_dir = Path(out_dir)
    _atomic_write(out_dir / "report.csv", _csv_text(REPORT_COLUMNS, report.rows))
    threshold_cols = [f"success_{t:g}" for t in report.plan.thresholds]
    instance_cols = (["n_modes", "instance_id", "alpha", "best_fidelity"] + threshold_cols
                     + ["n_evals", "wall_time_s", "n_errors"])
    _atomic_write(out_dir / "instances.csv", _csv_text(instance_cols, report.instance_rows))
    run_cols = (
        ["n_modes", "n_flights", "n_gates", "instance_id", "alpha", "restart",
         "final_fidelity"] + threshold_cols + ["n_evals", "wall_time_s", "error"]
    )
    run_rows = []
    for s in report.run_rows:
        row = dict(s)
        for t in report.plan.thresholds:
            row[f"success_{t:g}"] = s["success"].get(str(t), False)
        run_rows.append({k: row[k] for k in run_cols})
    _atomic_write(out_dir / "runs.csv", _csv_text(run_cols, run_rows))
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "kind": "success_report",
        "plan": report.plan.to_dict(),
        "rows": list(report.rows),
        "instance_rows": list(report.instance_rows),
        "n_errors": report.n_errors,
        "metadata": {"timestamp": datetime.now(timezone.utc).isoformat()},
    }
    _atomic_write(out_dir / "report.json", json.dumps(payload, indent=1) + "\n")


def verify_report(out_dir):
    """Recompute report.csv from the run records and compare the text.

    The record files under ``runs/`` must be exactly those the plan in
    ``report.json`` names.  Returns the number of verified aggregate
    rows; raises GbsOptError on any mismatch.  This keeps the report a
    pure function of the records.
    """
    out_dir = Path(out_dir)
    report_path = out_dir / "report.json"
    if not report_path.exists():
        raise GbsOptError(f"no report.json under {out_dir}")
    plan = ExperimentPlan.from_dict(json.loads(report_path.read_text())["plan"])
    runs_dir = out_dir / "runs"
    expected = {name for *_, name in _plan_runs(plan)}
    found = {path.name for path in runs_dir.glob("*.json")}
    if found != expected:
        raise GbsOptError(
            f"run records do not match the plan: missing {sorted(expected - found)}, "
            f"unexpected {sorted(found - expected)}"
        )
    rebuilt = build_report(
        plan, [_summary_from_record(json.loads((runs_dir / name).read_text()))
               for name in sorted(expected)]
    )
    stored = (out_dir / "report.csv").read_text().splitlines()
    for got, want in zip_longest(stored, _csv_text(REPORT_COLUMNS, rebuilt.rows).splitlines()):
        if got != want:
            raise GbsOptError(f"report.csv mismatch: stored {got!r}, recomputed {want!r}")
    return len(rebuilt.rows)

"""Batch experiment orchestration: sweeps, run records, success reports.

A sweep executes size x instance x alpha x restart training runs, each
producing one JSON record under ``runs/``.  Records are deterministic
functions of the plan (timestamps and wall times live in a separate
``metadata`` field), so re-running a finished or interrupted sweep skips
completed records by content hash and reproduces the same report.

Report files:

* ``report.csv``    - N, alpha, threshold, success_fraction, n_instances
* ``runs.csv``      - one row per training run
* ``instances.csv`` - per (instance, alpha): best fidelity over restarts,
  success flags, evaluations used, wall time
* ``report.json``   - the same content plus the fully resolved plan

An instance counts as successful for (alpha, t) when any of its restarts
reaches fidelity > t.
"""

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import CapacityError, GbsOptError
from .optim import DEFAULT_THRESHOLDS, TrainConfig, train
from .problems import (
    BRUTE_FORCE_CAP,
    assemble_qubo,
    dump_instance,
    generate_instance,
    instance_filename,
    load_instance,
)

__all__ = [
    "ExperimentPlan",
    "SuccessReport",
    "run_experiment",
    "verify_report",
    "record_to_json",
    "canonical_record_bytes",
    "default_sizes",
    "size_to_flights_gates",
]

RECORD_FORMAT_VERSION = 2
REPORT_FORMAT_VERSION = 2

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
            out.append(size_to_flights_gates(entry))
        else:
            f, g = entry
            out.append((int(f), int(g)))
    return tuple(out)


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one sweep needs; fields mirror the CLI flags."""

    sizes: tuple = field(default_factory=default_sizes)
    instances_per_size: int = 50
    restarts: int = 5
    alphas: tuple = (0.01, 0.1, 0.25, 1.0)
    thresholds: tuple = DEFAULT_THRESHOLDS
    base_seed: int = 2023
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sizes", _normalize_sizes(self.sizes))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if self.instances_per_size < 1 or self.restarts < 1:
            raise ValueError("instance and restart counts must be >= 1")
        if not self.sizes:
            raise ValueError("at least one size is required")
        for f, g in self.sizes:
            if f * g > BRUTE_FORCE_CAP:
                raise CapacityError(
                    f"size {f}x{g} exceeds the {BRUTE_FORCE_CAP}-mode solver cap"
                )
        unknown = set(self.train) - set(DEFAULT_TRAIN_OVERRIDES)
        if unknown:
            raise ValueError(f"unknown train override(s): {sorted(unknown)}")
        merged = dict(DEFAULT_TRAIN_OVERRIDES)
        merged.update(self.train)
        object.__setattr__(self, "train", merged)

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


def _train_config_for(plan, alpha, train_seed):
    overrides = dict(plan.train)
    if overrides["optimizer"] == "auto":
        exact_mean = alpha == 1.0 and overrides["shots_k"] == 0
        overrides["optimizer"] = "adam" if exact_mean else "cobyla"
    return TrainConfig(seed=train_seed, alpha=alpha, **overrides)


def write_instances(plan, out_dir: Path):
    """Generate the plan's instances into ``out_dir``, in plan order.

    Returns (instance seed, instance, path) triples.  A file is written
    only when it is missing or its text differs, so resuming a sweep
    leaves the instance files untouched.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for n_flights, n_gates in plan.sizes:
        for idx in range(plan.instances_per_size):
            seed = _derive_seed(plan.base_seed, n_flights, n_gates, idx)
            instance = generate_instance(n_flights, n_gates, seed)
            path = out_dir / instance_filename(instance)
            text = dump_instance(instance)
            if not path.exists() or path.read_text() != text:
                _atomic_write(path, text)
            out.append((seed, instance, path))
    return out


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


def _run_info(instance_id, inst_path, instance, alpha, restart):
    return {
        "instance_id": instance_id,
        "instance_file": inst_path.name,
        "n_modes": instance.n_modes,
        "n_flights": instance.n_flights,
        "n_gates": instance.n_gates,
        "alpha": float(alpha),
        "restart": restart,
    }


def record_to_json(run_info, config, result):
    """Full record dict; deterministic apart from the metadata block."""
    return {
        "format_version": RECORD_FORMAT_VERSION,
        "kind": "train_record",
        "run": run_info,
        "config": config,
        "result": result,
        "metadata": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }


def canonical_record_bytes(record):
    """Serialized record with the metadata block removed.

    This is the byte sequence that determinism guarantees cover, and the
    input of the content hash used for sweep resumption.
    """
    body = {k: v for k, v in record.items() if k != "metadata"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _config_dict(cfg: TrainConfig, thresholds):
    d = asdict(cfg)
    d["thresholds"] = [float(t) for t in thresholds]
    return d


def _result_dict(record):
    return {
        "best_theta": record.best_theta.entries.tolist(),
        "cost_trace": [[int(i), float(c)] for i, c in record.cost_trace],
        "n_evals": int(record.n_evals),
        "final_fidelity": float(record.final_fidelity),
        "success": {str(t): bool(v) for t, v in sorted(record.success.items())},
        "timed_out": bool(record.timed_out),
        "error": None,
    }


def _error_result_dict(error_tag, thresholds):
    return {
        "best_theta": None,
        "cost_trace": [],
        "n_evals": 0,
        "final_fidelity": 0.0,
        "success": {str(float(t)): False for t in thresholds},
        "timed_out": False,
        "error": error_tag,
    }


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def execute_run(task):
    """Run one training task and write its record file.  Returns a summary.

    Any exception is captured into the record as an error tag; a sweep
    never aborts because a single run failed.
    """
    out_path = Path(task["record_path"])
    thresholds = task["thresholds"]
    cfg = TrainConfig(**task["config"])
    run_info = task["run_info"]
    started = time.monotonic()
    error = None
    try:
        instance = load_instance(Path(task["instance_path"]).read_text())
        record = train(assemble_qubo(instance), cfg, thresholds)
        if record.timed_out:
            error = "timeout"
            result = _error_result_dict(error, thresholds)
            result["n_evals"] = int(record.n_evals)
        else:
            result = _result_dict(record)
    except Exception as exc:  # noqa: BLE001 - partial-failure policy
        error = f"{type(exc).__name__}: {exc}"
        result = _error_result_dict(error, thresholds)
    wall = time.monotonic() - started
    full = record_to_json(run_info, _config_dict(cfg, thresholds), result)
    full["metadata"]["wall_time_s"] = wall
    full["config_sha256"] = _config_hash(task)
    _atomic_write(out_path, json.dumps(full, indent=1) + "\n")
    return _summary_from_record(full)


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


def _config_hash(task):
    """Content hash of a task's run info and record config; keys resumption."""
    config = _config_dict(TrainConfig(**task["config"]), task["thresholds"])
    return hashlib.sha256(
        json.dumps({"run": task["run_info"], "config": config}, sort_keys=True).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------


def _build_tasks(plan, out_dir: Path):
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for inst_seed, instance, inst_path in write_instances(plan, out_dir / "instances"):
        n = instance.n_modes
        instance_id = f"{n}_{inst_seed}"
        for alpha in plan.alphas:
            for restart in range(plan.restarts):
                train_seed = _derive_seed(inst_seed, restart)
                # records carry the size-resolved config (max_evals
                # filled in), which also feeds the resume hash
                cfg = _train_config_for(plan, alpha, train_seed).resolved(n)
                record_name = f"{instance_id}_a{alpha:g}_r{restart}.json"
                tasks.append(
                    {
                        "instance_path": str(inst_path),
                        "record_path": str(runs_dir / record_name),
                        "config": asdict(cfg),
                        "thresholds": list(plan.thresholds),
                        "run_info": _run_info(
                            instance_id, inst_path, instance, alpha, restart
                        ),
                    }
                )
    return tasks


def _resume_summary(task):
    """Summary from an existing record if it matches the task, else None."""
    path = Path(task["record_path"])
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if record.get("config_sha256") != _config_hash(task):
        return None
    return _summary_from_record(record)


def resolve_workers(workers=None):
    if workers is not None:
        return max(1, int(workers))
    return max(1, os.cpu_count() or 1)


def run_experiment(plan, out_dir, workers=None):
    """Execute a sweep (resuming where possible) and write the report."""
    out_dir = Path(out_dir)
    tasks = _build_tasks(plan, out_dir)
    summaries = []
    pending = []
    for task in tasks:
        existing = _resume_summary(task)
        if existing is not None:
            summaries.append(existing)
        else:
            pending.append(task)
    workers = resolve_workers(workers)
    if pending:
        if workers == 1:
            summaries.extend(execute_run(task) for task in pending)
        else:
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
        best = max(r["final_fidelity"] for r in runs)
        row = {
            "n_modes": n_modes,
            "instance_id": instance_id,
            "alpha": alpha,
            "best_fidelity": best,
            "n_evals": sum(r["n_evals"] for r in runs),
            "wall_time_s": sum(r["wall_time_s"] for r in runs),
            "n_errors": sum(1 for r in runs if r["error"]),
        }
        for t in plan.thresholds:
            row[f"success_{t:g}"] = any(r["success"].get(str(t), False) for r in runs)
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


def _write_csv(path: Path, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue())


def write_report(report, out_dir):
    out_dir = Path(out_dir)
    _write_csv(
        out_dir / "report.csv",
        ["n_modes", "alpha", "threshold", "success_fraction", "n_instances"],
        report.rows,
    )
    threshold_cols = [f"success_{t:g}" for t in report.plan.thresholds]
    _write_csv(
        out_dir / "instances.csv",
        ["n_modes", "instance_id", "alpha", "best_fidelity"]
        + threshold_cols
        + ["n_evals", "wall_time_s", "n_errors"],
        report.instance_rows,
    )
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
    _write_csv(out_dir / "runs.csv", run_cols, run_rows)
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
    """Recompute success fractions from run records; compare to report.csv.

    Returns the number of verified aggregate rows; raises GbsOptError on
    any mismatch.  This keeps the report a pure function of the records.
    """
    out_dir = Path(out_dir)
    report_path = out_dir / "report.json"
    if not report_path.exists():
        raise GbsOptError(f"no report.json under {out_dir}")
    payload = json.loads(report_path.read_text())
    plan = ExperimentPlan.from_dict(payload["plan"])
    summaries = []
    for path in sorted((out_dir / "runs").glob("*.json")):
        summaries.append(_summary_from_record(json.loads(path.read_text())))
    rebuilt = build_report(plan, summaries)

    with (out_dir / "report.csv").open() as fh:
        stored = list(csv.DictReader(fh))
    if len(stored) != len(rebuilt.rows):
        raise GbsOptError(
            f"report.csv has {len(stored)} rows, records imply {len(rebuilt.rows)}"
        )
    for got, want in zip(stored, rebuilt.rows):
        ok = (
            int(got["n_modes"]) == want["n_modes"]
            and float(got["alpha"]) == want["alpha"]
            and float(got["threshold"]) == want["threshold"]
            and abs(float(got["success_fraction"]) - want["success_fraction"]) < 1e-12
            and int(got["n_instances"]) == want["n_instances"]
        )
        if not ok:
            raise GbsOptError(f"report row mismatch: stored {got}, recomputed {want}")
    return len(rebuilt.rows)

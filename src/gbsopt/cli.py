"""Command-line interface.

Subcommands: generate, solve, train, experiment, verify.  Every flag has
a config-file equivalent (JSON); precedence is flags > file > defaults.
Exit codes: 0 success, 2 invalid input, 3 capacity exceeded, 4 training
failed, 5 sweep finished with some failed runs.
"""

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import CapacityError, GbsOptError, GenerationError, TrainingFailedError
from .harness import (
    DEFAULT_TRAIN_OVERRIDES,
    ExperimentPlan,
    RunTask,
    run_experiment,
    verify_report,
    write_instances,
    write_record,
)
from .optim import DEFAULT_THRESHOLDS, TrainConfig, train
from .problems import assemble_qubo, brute_force_solve, load_instance

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_TRAINING_FAILED = 4
EXIT_PARTIAL_SWEEP = 5


def _parse_sizes(text):
    """Accept "2x3,2x4" pairs or bare mode counts "6,8"."""
    sizes = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if "x" in token:
            f, g = token.split("x")
            sizes.append((int(f), int(g)))
        else:
            sizes.append(int(token))
    if not sizes:
        raise ValueError("no sizes given")
    return sizes


def _parse_floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_config(path, known):
    """The JSON object in ``path`` ({} for None); keys must lie in ``known``."""
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown key(s) in {path}: {sorted(unknown)}")
    return data


def _merged(defaults, file_values, flag_values):
    """Apply precedence flags > file > defaults; None flags mean unset."""
    out = dict(defaults)
    out.update({k: v for k, v in file_values.items() if v is not None})
    out.update({k: v for k, v in flag_values.items() if v is not None})
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


_GENERATE_DEFAULTS = {"sizes": [6, 8], "instances": 10, "base_seed": 2023}


def cmd_generate(args):
    values = _merged(
        _GENERATE_DEFAULTS,
        _load_config(args.config, _GENERATE_DEFAULTS),
        {"sizes": args.sizes, "instances": args.instances, "base_seed": args.base_seed},
    )
    sizes = values["sizes"]
    if isinstance(sizes, str):
        sizes = _parse_sizes(sizes)
    plan = ExperimentPlan(sizes=sizes, instances_per_size=values["instances"],
                          base_seed=values["base_seed"])
    for _, path in write_instances(plan, Path(args.out)).values():
        print(path)
    return EXIT_OK


def cmd_solve(args):
    instance_path = Path(args.instance)
    instance = load_instance(instance_path.read_text())
    truth = brute_force_solve(assemble_qubo(instance))
    payload = {
        "format_version": 1,
        "kind": "ground_truth",
        "instance_file": instance_path.name,
        "min_value": truth.min_value,
        "minimizers": truth.minimizers.tolist(),
    }
    out_path = instance_path.with_suffix(".solution.json")
    out_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{out_path}: min {truth.min_value:.6g} with {len(truth.minimizers)} minimizer(s)")
    return EXIT_OK


_TRAIN_DEFAULTS = {
    f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING
} | {"seed": 0, "thresholds": list(DEFAULT_THRESHOLDS)}


def cmd_train(args):
    file_cfg = _load_config(args.config, _TRAIN_DEFAULTS)
    flag_values = {key: getattr(args, key) for key in _TRAIN_DEFAULTS}
    flag_values["thresholds"] = _parse_floats(args.thresholds) if args.thresholds else None
    values = _merged(_TRAIN_DEFAULTS, file_cfg, flag_values)
    try:
        thresholds = tuple(float(t) for t in values.pop("thresholds"))
    except TypeError as exc:
        raise ValueError(f"thresholds must be a list of numbers: {exc}") from exc

    instance_path = Path(args.instance)
    instance = load_instance(instance_path.read_text())
    out_path = Path(args.out) if args.out else instance_path.with_suffix(".record.json")
    task = RunTask(instance, instance_path.name,
                   TrainConfig(**values).resolved(instance.n_modes), thresholds, out_path)
    started = time.monotonic()
    record = train(assemble_qubo(instance), task.cfg, thresholds)
    write_record(task, record, time.monotonic() - started)
    print(
        f"{out_path}: fidelity {record.final_fidelity:.6f} "
        f"after {record.n_evals} evaluations"
    )
    return EXIT_OK


def cmd_experiment(args):
    plan_dict = _load_config(args.plan, [f.name for f in fields(ExperimentPlan)])
    flag_values = {
        "sizes": _parse_sizes(args.sizes) if args.sizes else None,
        "instances_per_size": args.instances,
        "restarts": args.restarts,
        "alphas": _parse_floats(args.alphas) if args.alphas else None,
        "thresholds": _parse_floats(args.thresholds) if args.thresholds else None,
        "base_seed": args.base_seed,
    }
    merged = _merged({}, plan_dict, flag_values)
    train_overrides = dict(merged.get("train", {}))
    for key in DEFAULT_TRAIN_OVERRIDES:
        if getattr(args, key) is not None:
            train_overrides[key] = getattr(args, key)
    if train_overrides:
        merged["train"] = train_overrides
    plan = ExperimentPlan.from_dict(merged)

    report = run_experiment(plan, args.out, workers=args.workers)
    for row in report.rows:
        print(
            f"N={row['n_modes']} alpha={row['alpha']:g} t={row['threshold']:g}: "
            f"success {row['success_fraction']:.2f} over {row['n_instances']} instances"
        )
    if report.n_errors:
        print(f"{report.n_errors} run(s) failed; see runs.csv", file=sys.stderr)
        return EXIT_PARTIAL_SWEEP
    return EXIT_OK


def cmd_verify(args):
    n_rows = verify_report(args.out)
    print(f"report verified: {n_rows} aggregate rows match the run records")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_train_flags(parser, optimizers):
    """The flags of the plan's train overrides, shared by train and experiment."""
    parser.add_argument(
        "--shots", type=int, dest="shots_k",
        help="shots per evaluation; 0 = exact mode, 1000 is the usual sampled choice",
    )
    parser.add_argument("--max-evals", type=int, dest="max_evals")
    parser.add_argument("--optimizer", choices=optimizers)
    parser.add_argument("--adam-steps", type=int, dest="adam_steps")
    parser.add_argument("--max-seconds", type=float, dest="max_seconds")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbsopt",
        description=(
            "Exact Gaussian boson sampling with threshold detectors, driving a "
            "CVaR variational solver for flight-gate assignment QUBOs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write random instance files")
    p_gen.add_argument("--sizes", help='e.g. "2x3,2x4" or mode counts "6,8"')
    p_gen.add_argument("--instances", type=int, help="instances per size")
    p_gen.add_argument("--base-seed", type=int, dest="base_seed")
    p_gen.add_argument("--config", help="JSON config file (flags override it)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="brute-force ground truth for an instance")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.set_defaults(func=cmd_solve)

    p_train = sub.add_parser("train", help="run one training on an instance")
    p_train.add_argument("instance", help="instance JSON file")
    p_train.add_argument("--alpha", type=float)
    _add_train_flags(p_train, ["cobyla", "adam"])
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--thresholds", help='fidelity thresholds, e.g. "0.1,0.01"')
    p_train.add_argument("--config", help="JSON config file (flags override it)")
    p_train.add_argument("--out", help="record file (default: <instance>.record.json)")
    p_train.set_defaults(func=cmd_train)

    p_exp = sub.add_parser("experiment", help="run a full success-fraction sweep")
    p_exp.add_argument("--plan", help="plan JSON file")
    p_exp.add_argument("--sizes")
    p_exp.add_argument("--instances", type=int)
    p_exp.add_argument("--restarts", type=int)
    p_exp.add_argument("--alphas")
    p_exp.add_argument("--thresholds")
    p_exp.add_argument("--base-seed", type=int, dest="base_seed")
    _add_train_flags(p_exp, ["auto", "cobyla", "adam"])
    p_exp.add_argument("--workers", type=int, help="worker processes (default: CPU count)")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)

    p_ver = sub.add_parser("verify", help="recompute a report from its run records")
    p_ver.add_argument("out", help="experiment output directory")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except TrainingFailedError as exc:
        print(f"error: training failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING_FAILED
    except (ValueError, GenerationError, GbsOptError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

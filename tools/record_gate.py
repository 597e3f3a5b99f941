"""Record gate for refactors: hashes of a fixed set of run records.

Runs, in a temporary directory and with one worker each:

* four small sweeps (2 x 3 modes, 2 instances, 2 restarts): exact alphas
  [0.1, 1.0] and sampled alpha 0.1 with ``shots_k = 200``, each at base
  seeds 7 and 2023;
* one sampled sweep at the shape of the ``sampled-tail`` benchmark
  (2 x 4 modes, 1 instance, 1 restart, alpha 0.1, ``shots_k = 1000``,
  ``max_evals = 40``, base seed 7);
* one sampled sweep at 12 modes (3 x 4 modes, 1 instance, 1 restart,
  alpha 0.1, ``shots_k = 1000``, ``max_evals = 38``, base seed 7), whose
  prefixes share vacuum marginals within each mode of the sampler;
* one sampled sweep at 20 modes, the mode cap (4 x 5 modes,
  1 instance, 1 restart, alpha 0.1, ``shots_k = 1000``, ``max_evals =
  62``, base seed 7), where the sampler's tables of vacuum marginals are
  largest;
* one ADAM sweep at the shape of the ``analytic-mean`` benchmark
  (4 x 4 modes, 1 instance, 1 restart, alpha 1.0, ``adam_steps = 100``,
  base seed 7), which runs the batched closed-form <Q>;
* one ADAM sweep at 20 modes, the mode cap (4 x 5 modes, 1 instance,
  1 restart, alpha 1.0, ``adam_steps = 10``, base seed 7), which pins
  the pattern energies at the cap and the ADAM path through a whole run;
* the record of acceptance criterion 9: ``gbsopt generate --sizes 2x3
  --instances 2 --base-seed 99`` and ``gbsopt train <first instance>
  --alpha 0.1 --seed 17``;
* ``train-default``: ``gbsopt train <the same instance> --seed 17`` with
  no other flag, which pins the training defaults that ``gbsopt train``
  shares with every sweep.

For each it prints one sha256 (its first 16 hex digits) per record block
(``run``, ``config``, ``result``) over the records in file-name order and
one for the instance files; for each sweep also one per report file:
``report.csv``, ``runs.csv`` and ``instances.csv`` without their
``wall_time_s`` column, and ``report.json`` without its ``metadata`` and
without the wall times of its instance rows.  So every line is a
deterministic function of the code:

    python tools/record_gate.py                      # this checkout's src/
    python tools/record_gate.py --src ../other/src   # another checkout

``--against SRC`` runs the gate on both checkouts and prints, per sweep
and block, ``same`` or ``differs`` with both hashes.  Where the
``result`` blocks differ it also prints the largest |change| of
``final_fidelity``, how many ``n_evals`` changed and every success
decision that flipped: a refactor must keep everything the same, a
numeric rewrite may move fidelities at roundoff.  It exits 1, after
printing every line, when any line differs, so a script can gate a
refactor on it.

    python tools/record_gate.py --against ../parent/src

``--drop-config-key K`` (repeatable) deletes K from every ``config``
block before hashing, so a change that removes config keys can be checked
to keep everything else of that block.

Each checkout runs in a fresh interpreter, so two versions of gbsopt
never share a process.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

BLOCKS = ("run", "config", "result")
SWEEPS = [
    (f"exact-b{seed}", {"alphas": [0.1, 1.0], "base_seed": seed, "train": {}})
    for seed in (7, 2023)
] + [
    (f"sampled-b{seed}", {"alphas": [0.1], "base_seed": seed, "train": {"shots_k": 200}})
    for seed in (7, 2023)
] + [
    ("sampled8-b7", {"sizes": [[2, 4]], "instances_per_size": 1, "restarts": 1,
                     "alphas": [0.1], "base_seed": 7,
                     "train": {"shots_k": 1000, "max_evals": 40}}),
    ("sampled12-b7", {"sizes": [[3, 4]], "instances_per_size": 1, "restarts": 1,
                      "alphas": [0.1], "base_seed": 7,
                      "train": {"shots_k": 1000, "max_evals": 38}}),
    ("sampled20-b7", {"sizes": [[4, 5]], "instances_per_size": 1, "restarts": 1,
                      "alphas": [0.1], "base_seed": 7,
                      "train": {"shots_k": 1000, "max_evals": 62}}),
    ("analytic16-b7", {"sizes": [[4, 4]], "instances_per_size": 1, "restarts": 1,
                       "alphas": [1.0], "base_seed": 7, "train": {"adam_steps": 100}}),
    ("analytic20-b7", {"sizes": [[4, 5]], "instances_per_size": 1, "restarts": 1,
                       "alphas": [1.0], "base_seed": 7, "train": {"adam_steps": 10}}),
]
SWEEP_BASE = {"sizes": [[2, 3]], "instances_per_size": 2, "restarts": 2,
              "thresholds": [0.1, 0.01]}
REPORT_CSVS = ("report.csv", "runs.csv", "instances.csv")
CRITERION9 = "criterion9"
TRAIN_DEFAULT = "train-default"


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\n")
    return h.hexdigest()[:16]


def _block_hashes(records, dropped):
    out = {}
    for block in BLOCKS:
        chunks = []
        for record in records:
            body = record[block]
            if block == "config":
                body = {k: v for k, v in body.items() if k not in dropped}
            chunks.append(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
        out[block] = _sha(chunks)
    return out


def _files_hash(paths):
    return _sha(p.name.encode() + b"\0" + p.read_bytes() for p in sorted(paths))


def _csv_hash(path):
    """Hash of a report CSV file rewritten without its ``wall_time_s`` column,
    if any; report.csv, which has none, hashes as its bytes."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    keep = [k for k, name in enumerate(rows[0]) if name != "wall_time_s"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([row[k] for k in keep] for row in rows)
    return _sha([buf.getvalue().encode()])


def _report_json_hash(path):
    """Hash of report.json without its metadata and its instance rows' wall times."""
    payload = json.loads(path.read_text())
    del payload["metadata"]
    for row in payload["instance_rows"]:
        del row["wall_time_s"]
    return _sha([json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()])


def _run_gate(src, work):
    """Write the gate's sweeps and criterion 9 record under ``work``, using src's gbsopt."""
    src, work = Path(src), Path(work)
    sys.path.insert(0, str(src))
    import gbsopt
    from gbsopt.cli import main
    from gbsopt.harness import ExperimentPlan, run_experiment

    if Path(gbsopt.__file__).resolve().parent != src / "gbsopt":
        raise SystemExit(f"record_gate: imported gbsopt from {gbsopt.__file__}")
    for name, spec in SWEEPS:
        run_experiment(ExperimentPlan.from_dict({**SWEEP_BASE, **spec}), work / name, workers=1)

    inst_dir = work / CRITERION9
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["generate", "--sizes", "2x3", "--instances", "2", "--base-seed", "99",
                 "--out", str(inst_dir)]) != 0:
            raise SystemExit("record_gate: gbsopt generate failed")
        instance = sorted(inst_dir.glob("*.json"))[0]
        for name, flags in ((CRITERION9, ["--alpha", "0.1"]), (TRAIN_DEFAULT, [])):
            if main(["train", str(instance), *flags, "--seed", "17",
                     "--out", str(work / f"{name}.record.json")]) != 0:
                raise SystemExit("record_gate: gbsopt train failed")


def _gate_outputs(src, work):
    """Run the gate in a fresh interpreter; per sweep, its records and files."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=_run_gate, args=(str(src), str(work)))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise SystemExit(f"record_gate: the gate failed on {src} (exit {proc.exitcode})")
    outputs = {}
    for name, _ in SWEEPS:
        out = work / name
        outputs[name] = {
            "records": [json.loads(p.read_text()) for p in sorted((out / "runs").glob("*.json"))],
            "instances": list((out / "instances").glob("*.json")),
            "sweep_dir": out,
        }
    for name in (CRITERION9, TRAIN_DEFAULT):
        outputs[name] = {
            "records": [json.loads((work / f"{name}.record.json").read_text())],
            "instances": list((work / CRITERION9).glob("*.json")),
        }
    return outputs


def _hashes(output, dropped):
    hashes = _block_hashes(output["records"], dropped)
    if "sweep_dir" in output:
        for name in REPORT_CSVS:
            hashes[name] = _csv_hash(output["sweep_dir"] / name)
        hashes["report.json"] = _report_json_hash(output["sweep_dir"] / "report.json")
    hashes["instances"] = _files_hash(output["instances"])
    return hashes


def _result_drift(records, others):
    """Fidelity, evaluation-count and success-decision changes between paired records."""
    if [r["run"] for r in records] != [r["run"] for r in others]:
        return "(the run blocks differ, so records do not pair)"
    pairs = [(a["result"], b["result"]) for a, b in zip(records, others)]
    fidelity = max(abs(a["final_fidelity"] - b["final_fidelity"]) for a, b in pairs)
    kept = [abs(a["final_fidelity"] - b["final_fidelity"])
            for a, b in pairs if a["n_evals"] == b["n_evals"]]
    evals = len(pairs) - len(kept)
    flips = [f"{a['run'].get('instance_id')}/alpha={a['run'].get('alpha')}"
             f"/restart={a['run'].get('restart')}@t={t}"
             for a, b in zip(records, others)
             for t, won in a["result"]["success"].items()
             if b["result"]["success"].get(t) != won]
    return (f"max|d final_fidelity| {fidelity:.1e} "
            f"({max(kept, default=0.0):.1e} where n_evals is unchanged), "
            f"n_evals changed {evals}/{len(records)}, "
            f"success flips {len(flips)}" + (f": {' '.join(flips)}" if flips else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the gbsopt package (default: ../src)")
    parser.add_argument("--against", default=None,
                        help="a second gbsopt source directory to compare with")
    parser.add_argument("--drop-config-key", action="append", default=[], dest="dropped",
                        help="config key to delete before hashing (repeatable)")
    args = parser.parse_args(argv)
    dropped = set(args.dropped)
    with tempfile.TemporaryDirectory() as tmp:
        ours = _gate_outputs(Path(args.src).resolve(), Path(tmp) / "src")
        if args.against is None:
            for name, output in ours.items():
                for key, value in _hashes(output, dropped).items():
                    print(f"{name} {key} {value}")
            return 0
        theirs = _gate_outputs(Path(args.against).resolve(), Path(tmp) / "against")
        differs = False
        for name, output in ours.items():
            other = _hashes(theirs[name], dropped)
            for key, value in _hashes(output, dropped).items():
                if value == other[key]:
                    print(f"{name} {key} same {value}")
                    continue
                differs = True
                line = f"{name} {key} differs {value} {other[key]}"
                if key == "result":
                    line += " " + _result_drift(output["records"], theirs[name]["records"])
                print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

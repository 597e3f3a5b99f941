"""Byte-identity gate for refactors: hashes of a fixed set of run records.

Runs, in a temporary directory and with one worker each:

* four small sweeps (2 x 3 modes, 2 instances, 2 restarts): exact alphas
  [0.1, 1.0] and sampled alpha 0.1 with ``shots_k = 200``, each at base
  seeds 7 and 2023;
* the record of acceptance criterion 9: ``gbsopt generate --sizes 2x3
  --instances 2 --base-seed 99`` and ``gbsopt train <first instance>
  --alpha 0.1 --seed 17``.

For each it prints one sha256 (its first 16 hex digits) per record block
(``run``, ``config``, ``result``) over the records in file-name order,
one for ``report.csv`` and one for the instance files.  Run it against
two checkouts and compare the output lines:

    python tools/record_gate.py                      # this checkout's src/
    python tools/record_gate.py --src ../other/src   # another checkout

``--drop-config-key K`` (repeatable) deletes K from every ``config``
block before hashing, so a change that removes config keys can be checked
to keep everything else of that block.
"""

import argparse
import contextlib
import hashlib
import io
import json
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
]
SWEEP_BASE = {"sizes": [[2, 3]], "instances_per_size": 2, "restarts": 2,
              "thresholds": [0.1, 0.01]}


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


def gate(work, dropped):
    from gbsopt.cli import main
    from gbsopt.harness import ExperimentPlan, run_experiment

    lines = []
    for name, spec in SWEEPS:
        out = work / name
        run_experiment(ExperimentPlan.from_dict({**SWEEP_BASE, **spec}), out, workers=1)
        records = [json.loads(p.read_text()) for p in sorted((out / "runs").glob("*.json"))]
        hashes = _block_hashes(records, dropped)
        hashes["report.csv"] = _sha([(out / "report.csv").read_bytes()])
        hashes["instances"] = _files_hash((out / "instances").glob("*.json"))
        lines += [f"{name} {key} {value}" for key, value in hashes.items()]

    inst_dir = work / "criterion9"
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["generate", "--sizes", "2x3", "--instances", "2", "--base-seed", "99",
                 "--out", str(inst_dir)]) != 0:
            raise SystemExit("record_gate: gbsopt generate failed")
        instance = sorted(inst_dir.glob("*.json"))[0]
        rec = work / "criterion9.record.json"
        if main(["train", str(instance), "--alpha", "0.1", "--seed", "17",
                 "--out", str(rec)]) != 0:
            raise SystemExit("record_gate: gbsopt train failed")
    hashes = _block_hashes([json.loads(rec.read_text())], dropped)
    hashes["instances"] = _files_hash(inst_dir.glob("*.json"))
    lines += [f"criterion9 {key} {value}" for key, value in hashes.items()]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the gbsopt package (default: ../src)")
    parser.add_argument("--drop-config-key", action="append", default=[], dest="dropped",
                        help="config key to delete before hashing (repeatable)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gbsopt

    if Path(gbsopt.__file__).resolve().parent != src / "gbsopt":
        raise SystemExit(f"record_gate: imported gbsopt from {gbsopt.__file__}")
    with tempfile.TemporaryDirectory() as tmp:
        for line in gate(Path(tmp), set(args.dropped)):
            print(line)


if __name__ == "__main__":
    main()

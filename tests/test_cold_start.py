"""What ``import gbsopt`` loads, checked in fresh interpreters.

scipy is only COBYLA's, and the process pool only a multi-worker sweep's,
so neither may load at import.  Pytest's own process has loaded scipy
already (``test_acceptance`` imports ``scipy.stats``), so these checks
start a new interpreter with gbsopt's ``src`` first on its path.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import gbsopt.optim as optim
from gbsopt import (
    ExperimentPlan,
    TrainConfig,
    assemble_qubo,
    generate_instance,
    run_experiment,
    train,
)
from gbsopt.harness import canonical_record_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

#: defines heavy(): the loaded modules that ``import gbsopt`` must not load
PRELUDE = """
import json, pickle, sys

def heavy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m == "concurrent.futures.process")
"""

#: a 2 x 2 instance and the two trainings run on it, in and out of process
INSTANCE_SEED = 11
ADAM = {"seed": 3, "optimizer": "adam", "adam_steps": 20}
COBYLA = {"seed": 3, "alpha": 0.1}

POOL_PLAN = {
    "sizes": [[2, 2]],
    "instances_per_size": 2,
    "restarts": 1,
    "alphas": [0.1, 1.0],
    "thresholds": [0.1],
    "base_seed": 31,
    "train": {"adam_steps": 50},
}


def run_fresh(code, *args):
    """Standard output of ``code`` run with ``args`` in a new interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def record_fields(record):
    return (record.best_theta.entries.tolist(), record.cost_trace, record.n_evals,
            record.final_fidelity, record.success, record.timed_out)


def test_import_loads_neither_scipy_nor_the_pool():
    out = run_fresh("""
import gbsopt
after_package = heavy()
import gbsopt.cli
print(json.dumps([after_package, heavy()]))
""")
    assert json.loads(out) == [[], []]


def test_scipy_loads_on_the_first_cobyla_run():
    out = run_fresh("""
from gbsopt import TrainConfig, assemble_qubo, generate_instance, train
qubo = assemble_qubo(generate_instance(2, 2, seed=int(sys.argv[1])))
train(qubo, TrainConfig(**json.loads(sys.argv[2])))
after_adam = heavy()
record = train(qubo, TrainConfig(**json.loads(sys.argv[3])))
print(json.dumps(after_adam), "scipy.optimize" in sys.modules, pickle.dumps(record).hex())
""", str(INSTANCE_SEED), json.dumps(ADAM), json.dumps(COBYLA))
    after_adam, scipy_loaded, record_hex = out.split()
    assert json.loads(after_adam) == []
    assert scipy_loaded == "True"
    qubo = assemble_qubo(generate_instance(2, 2, seed=INSTANCE_SEED))
    in_process = train(qubo, TrainConfig(**COBYLA))
    assert record_fields(pickle.loads(bytes.fromhex(record_hex))) == record_fields(in_process)


def test_cobyla_goes_through_the_module_level_minimize(monkeypatch):
    # the benchmark's optim.minimize span rebinds this name, so every
    # COBYLA run must call it, and no ADAM run may
    methods = []
    real_minimize = optim.minimize

    def counting(*args, **kwargs):
        methods.append(kwargs["method"])
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(optim, "minimize", counting)
    qubo = assemble_qubo(generate_instance(2, 2, seed=INSTANCE_SEED))
    train(qubo, TrainConfig(**ADAM))
    assert methods == []
    train(qubo, TrainConfig(**COBYLA))
    assert methods == ["COBYLA"]
    train(qubo, TrainConfig(**COBYLA))
    assert methods == ["COBYLA", "COBYLA"]


def test_pool_sweep_matches_a_serial_sweep(tmp_path):
    # forked workers of a parent that never imported scipy run both
    # COBYLA (alpha 0.1) and ADAM (alpha 1) runs
    out = run_fresh("""
from gbsopt import ExperimentPlan, run_experiment
run_experiment(ExperimentPlan.from_dict(json.loads(sys.argv[1])), sys.argv[2], workers=2)
print("scipy" in sys.modules)
""", json.dumps(POOL_PLAN), str(tmp_path / "pool"))
    assert out.split() == ["False"]
    run_experiment(ExperimentPlan.from_dict(POOL_PLAN), tmp_path / "serial", workers=1)

    def records(sweep):
        paths = sorted((tmp_path / sweep / "runs").glob("*.json"))
        return {p.name: canonical_record_bytes(json.loads(p.read_text())) for p in paths}

    serial = records("serial")
    assert len(serial) == 4
    assert records("pool") == serial
    assert ((tmp_path / "pool" / "report.csv").read_text()
            == (tmp_path / "serial" / "report.csv").read_text())

"""Sweep benchmark for gbsopt: training runs through ``harness.run_experiment``.

Usage, from the root of a checkout:

    python3 sweepbench/run.py --workload exact-tail --seed 1 --seconds 30 --trace 0

One invocation runs one workload in this process with ``workers=1``:

1. ``setup_s``: the median time, over a few fresh child processes, from
   process start until gbsopt is imported and the plan is built;
2. a short warm-up sweep, discarded;
3. timed rounds, for ``--seconds`` seconds and at least one round.  A
   round is a fresh sweep of the workload's plan into a new directory,
   then a resume pass over it and ``verify_report``.  Every round does
   the same work, so the reported figures are medians over rounds;
4. correctness checks against ``checks.py``, outside the timed region.

End-to-end times are rescaled to a fixed host speed by ``hostspeed.py``,
so that the shared host's drift does not show as a change in the
program: its calibration chunk runs every 0.2 s during each untraced
fresh sweep, and in slices on either side of each set-up probe.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one training
run; it failed when its record carries an error (a timeout included).
With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1``
wraps gbsopt's layer boundaries (see ``spans.py``) and reports per-layer
metrics instead, so end-to-end figures are always taken untraced.
"""

import os

# Pin BLAS / OpenMP to one thread before numpy is first imported: the
# benchmark measures the program, not how two cores share a thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: each workload is an ExperimentPlan; the seed becomes its base_seed.
#: Evaluation budgets sit just above COBYLA's 3N + 2 minimum, far below
#: convergence, so every run spends exactly its budget, and its states stay
#: near the random start, where the sampler's cost varies least by seed.
WORKLOADS = {
    # full_distribution dominates; the sampler and analytic cost never run
    "exact-tail": {
        "sizes": [[2, 5], [3, 4]],
        "instances_per_size": 1,
        "restarts": 1,
        "alphas": [0.1],
        "train": {"shots_k": 0, "max_evals": 38},
    },
    # the chain-rule sampler dominates; full_distribution never runs
    "sampled-tail": {
        "sizes": [[2, 4]],
        "instances_per_size": 4,
        "restarts": 1,
        "alphas": [0.1],
        "train": {"shots_k": 1000, "max_evals": 30},
    },
    # ADAM on the batched closed-form <Q>; Torontonians only for fidelity
    "analytic-mean": {
        "sizes": [[4, 4]],
        "instances_per_size": 2,
        "restarts": 1,
        "alphas": [1.0],
        "train": {"adam_steps": 100},
    },
}

SETUP_PROBES = 7
#: calibration slice on either side of each set-up probe
SETUP_SLICE_S = 0.3
#: shots per record for the sampled-tail click-frequency check
CHECK_SHOTS = 4000
#: the roundoff seen is 1e-15; fidelities at N = 16 go down to 1e-9
FIDELITY_ATOL = 1e-12
ANALYTIC_RTOL = 1e-8
CLICK_Z_MAX = 5.0


def import_gbsopt():
    """Import gbsopt from this checkout's ``src``, never from elsewhere."""
    package = SRC_DIR / "gbsopt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"sweepbench: no gbsopt sources at {package}")
    sys.path.insert(0, str(SRC_DIR))
    import gbsopt

    if Path(gbsopt.__file__).resolve().parent != package:
        raise SystemExit(f"sweepbench: imported gbsopt from {gbsopt.__file__}")
    return gbsopt


def build_plan(gbsopt, workload, seed, warmup=False):
    spec = dict(WORKLOADS[workload], base_seed=seed)
    if warmup:
        f, g = spec["sizes"][0]
        spec.update(sizes=[[f, g]], instances_per_size=1, restarts=1)
        # COBYLA's smallest budget for 3N trained entries is 3N + 2
        spec["train"] = dict(spec["train"], max_evals=3 * f * g + 2, adam_steps=5)
    return gbsopt.harness.ExperimentPlan.from_dict(spec)


def measure_setup(workload, seed):
    """Median host time from spawning a child until it has built the plan.

    A probe runs in another process, so the calibration chunk cannot run
    inside it; slices on either side of it stand in.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    chunk_before = hostspeed.calibrate(SETUP_SLICE_S)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.communicate()
        if child.returncode != 0 or line != "ready":
            raise SystemExit(f"sweepbench: set-up probe failed ({child.returncode})")
        chunk_after = hostspeed.calibrate(SETUP_SLICE_S)
        times.append(hostspeed.host_seconds(elapsed, chunk_before + chunk_after))
        chunk_before = chunk_after
    return statistics.median(times)


def read_records(sweep_dir):
    return [json.loads(p.read_text()) for p in sorted((sweep_dir / "runs").glob("*.json"))]


def file_states(sweep_dir):
    """(mtime_ns, bytes) of every record, and the bytes of report.csv.

    ``execute_run`` writes a record every time it trains, so unchanged
    records mean no run was trained; the report is rewritten on every
    pass, so only its content is compared.
    """
    states = {p.name: (p.stat().st_mtime_ns, p.read_bytes())
              for p in sorted((sweep_dir / "runs").glob("*.json"))}
    states["report.csv"] = (sweep_dir / "report.csv").read_bytes()
    return states


def without_metadata(record):
    return {k: v for k, v in record.items() if k != "metadata"}


def run_rounds(gbsopt, plan, run_dir, seconds, tracer):
    """Timed rounds of fresh sweep + resume + verify; one dict per round.

    Untraced, the fresh sweep runs under a ``hostspeed.Sampler``; its work
    time is its wall time less the calibration chunks run inside it.
    """
    harness = gbsopt.harness
    rounds = []
    begin = time.perf_counter()
    while True:
        sweep_dir = run_dir / f"round{len(rounds)}"
        mark = tracer.mark() if tracer else 0
        sampler = hostspeed.Sampler()
        round_start = time.perf_counter()
        with contextlib.nullcontext() if tracer else sampler:
            harness.run_experiment(plan, sweep_dir, workers=1)
        sweep_s = time.perf_counter() - round_start - sum(sampler.times)
        fresh = tracer.summarize(mark) if tracer else None

        records = read_records(sweep_dir)
        before = file_states(sweep_dir)
        mark = tracer.mark() if tracer else 0
        start = time.perf_counter()
        resumed = harness.run_experiment(plan, sweep_dir, workers=1)
        resume_s = time.perf_counter() - start
        resume = tracer.summarize(mark) if tracer else None
        after = file_states(sweep_dir)

        start = time.perf_counter()
        harness.verify_report(sweep_dir)
        verify_s = time.perf_counter() - start

        rounds.append({
            "dir": sweep_dir,
            "records": records,
            "sweep_s": sweep_s,
            "chunk_times": sampler.times,
            "resume_s": resume_s,
            "verify_s": verify_s,
            "resume_untouched": before == after,
            "records_resumed": len(resumed.run_rows)
            - (resume["optim.train"]["calls"] if resume and "optim.train" in resume else 0),
            "fresh": fresh,
            "resume": resume,
        })
        now = time.perf_counter()
        if now - begin + (now - round_start) > seconds:
            return rounds


def check_round(gbsopt, workload, plan, sweep_dir, records, seed):
    """Independent checks of one fresh sweep; returns failure messages."""
    failures = []
    instances = {
        p.name: checks.Instance(json.loads(p.read_text()))
        for p in (sweep_dir / "instances").glob("*.json")
    }
    truth = {name: inst.ground_truth() for name, inst in instances.items()}
    for k, rec in enumerate(records):
        res = rec["result"]
        if res["error"] is not None:
            continue
        name = rec["run"]["instance_file"]
        inst = instances[name]
        e_min, minimizers = truth[name]
        theta = np.array(res["best_theta"])
        tol = checks.ENERGY_RTOL * inst.scale
        tag = f"{name} alpha={rec['run']['alpha']} restart={rec['run']['restart']}"

        mass = checks.fidelity(theta, minimizers)
        if abs(mass - res["final_fidelity"]) > FIDELITY_ATOL:
            failures.append(f"{tag}: fidelity {res['final_fidelity']!r}, recomputed {mass!r}")
        costs = [c for _, c in res["cost_trace"]]
        if min(costs) < e_min - tol:
            failures.append(f"{tag}: cost {min(costs)!r} below the minimum energy {e_min!r}")
        best = min(costs)
        if workload == "exact-tail":
            mean = checks.mean_energy(inst, theta)
            if best > mean + tol:
                failures.append(f"{tag}: CVaR {best!r} above the mean energy {mean!r}")
        elif workload == "analytic-mean":
            mean = checks.mean_energy(inst, theta)
            if abs(best - mean) > ANALYTIC_RTOL * max(1.0, abs(mean)):
                failures.append(f"{tag}: cost {best!r}, recomputed <Q> {mean!r}")
        elif workload == "sampled-tail":
            state = gbsopt.state_from_theta(gbsopt.ThetaMatrix(theta))
            shots = gbsopt.sample(
                state, CHECK_SHOTS, np.random.SeedSequence([seed, k]))
            p = checks.click_probabilities(theta)
            se = np.sqrt(p * (1.0 - p) / CHECK_SHOTS)
            z = np.abs(shots.mean(axis=0) - p) / se
            if not np.all(z <= CLICK_Z_MAX):
                failures.append(f"{tag}: click frequencies off by {z.max():.2f} standard errors")

    want = checks.success_fractions(records, plan.thresholds)
    with (sweep_dir / "report.csv").open() as fh:
        got = {
            (int(r["n_modes"]), float(r["alpha"]), float(r["threshold"])):
                float(r["success_fraction"])
            for r in csv.DictReader(fh)
        }
    if got.keys() != want.keys() or any(
        abs(got[key] - want[key]) > 1e-12 for key in want
    ):
        failures.append(f"report.csv fractions {got} differ from the records' {want}")
    return failures


def check_run(gbsopt, workload, plan, rounds, seed):
    failures = []
    for r in rounds:
        if not r["resume_untouched"]:
            failures.append(f"{r['dir'].name}: the resume pass rewrote records or report.csv")
        if r["records_resumed"] != len(r["records"]):
            failures.append(f"{r['dir'].name}: resumed {r['records_resumed']} of "
                            f"{len(r['records'])} records")
    first = [without_metadata(rec) for rec in rounds[0]["records"]]
    for r in rounds[1:]:
        if [without_metadata(rec) for rec in r["records"]] != first:
            failures.append(f"{r['dir'].name}: records differ from round0's")
    last = rounds[-1]
    failures += check_round(gbsopt, workload, plan, last["dir"], last["records"], seed)
    return failures


def end_to_end(rounds, setup_s, peak_rss_mb):
    host_s = [hostspeed.host_seconds(r["sweep_s"], r["chunk_times"]) for r in rounds]
    runs = [len(r["records"]) / t for r, t in zip(rounds, host_s)]
    evals = [sum(rec["result"]["n_evals"] for rec in r["records"]) / t
             for r, t in zip(rounds, host_s)]
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (statistics.median(runs), "1/s"),
        "evals_per_s": (statistics.median(evals), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rounds):
    def median(get):
        return statistics.median(get(r) for r in rounds)

    def layer(name, key):
        return lambda r: r["fresh"].get(name, {}).get(key, 0)

    out = {}
    for name in ("torontonian.full_distribution", "torontonian.sample",
                 "torontonian.pattern_probability", "gaussian.state_from_theta",
                 "problems.pattern_energies", "problems.values",
                 "problems.brute_force_solve", "optim.cvar"):
        out[f"{name}.s"] = (median(layer(name, "s")), "s")
    for name in ("torontonian.full_distribution", "gaussian.state_from_theta",
                 "problems.pattern_energies"):
        out[f"{name}.calls"] = (median(layer(name, "calls")), "count")
    out["torontonian.sample.shots"] = (median(layer("torontonian.sample", "count")), "count")
    out["optim.minimize.self_s"] = (median(layer("optim.minimize", "self_s")), "s")
    out["optim.train.self_s"] = (median(layer("optim.train", "self_s")), "s")
    out["optim.evals"] = (
        median(lambda r: sum(rec["result"]["n_evals"] for rec in r["records"])), "count")
    out["harness.sweep.self_s"] = (median(layer("harness.run_experiment", "self_s")), "s")
    out["harness.resume_s"] = (median(lambda r: r["resume_s"]), "s")
    out["harness.records_resumed"] = (median(lambda r: r["records_resumed"]), "count")
    out["harness.verify_s"] = (median(lambda r: r["verify_s"]), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        build_plan(import_gbsopt(), args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # One CPU for the calibration, the sweeps and the set-up probes: the
    # host's CPUs drift in speed independently of one another.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gbsopt = import_gbsopt()
    plan = build_plan(gbsopt, args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(gbsopt)
    else:
        setup_s = measure_setup(args.workload, args.seed)

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    gbsopt.harness.run_experiment(
        build_plan(gbsopt, args.workload, args.seed, warmup=True), run_dir / "warmup",
        workers=1)
    rounds = run_rounds(gbsopt, plan, run_dir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        metrics = per_layer(rounds)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)
    failures = check_run(gbsopt, args.workload, plan, rounds, args.seed)

    attempted = sum(len(r["records"]) for r in rounds)
    failed = sum(1 for r in rounds for rec in r["records"] if rec["result"]["error"])
    sweeps = " ".join(f"{r['sweep_s']:.3f}" for r in rounds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, fresh sweeps took {sweeps} s", file=sys.stderr)
    if not tracer:
        chunks = " ".join(f"{1e3 * statistics.fmean(r['chunk_times']):.2f}" for r in rounds)
        print(f"# mean calibration chunk per sweep: {chunks} ms", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}", file=sys.stderr)
    for msg in failures:
        print(f"# CHECK FAILED: {msg}", file=sys.stderr)
    if not failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Micro benchmark of gbsopt's hot layers: one JSON line of medians.

For N in {8, 10, 12, 16, 20} (2 x 4, 2 x 5, 3 x 4, 4 x 4 and 4 x 5
flight-gate instances: 8 is the size of the ``sampled-tail`` benchmark
workload, 10 and 12 those of ``exact-tail``, 16 that of
``analytic-mean``, and 20 is the mode cap) it times, one call at a time
after one warm-up call:

* ``covariance_blocks_1``: ``gaussian.covariance_blocks`` of one theta;
* ``covariance_blocks_probes``: ``covariance_blocks`` of the 2m + 1 rows
  of an ADAM step (m = min(3N, N(N+1)/2) trained entries), each row the
  iterate or one of its +/-1e-5 probes in one of the first m upper
  entries;
* ``adam_pass``: one ``optim._adam_pass``, timed inside a real ADAM run
  (``train`` at alpha 1 with ``adam_steps`` 40), so whatever a run sets up
  for its steps is in place; in both timed runs the first call is the
  warm-up, and the ADAM run shares this process;
* ``full_distribution``: ``torontonian.full_distribution`` of one state;
* ``exact_eval``: one evaluation of the exact objective (theta, state,
  ``full_distribution``, CVaR), timed inside a real exact COBYLA run
  (``train`` at alpha 0.1) in a fresh process spawned for it.  A run's
  page faults depend on what the process allocated and freed before:
  after this script's other rows, a kernel that allocates every batch
  afresh read 3 faults per evaluation at N = 16, against 30.7k in a fresh
  process, and a tight loop of ``full_distribution`` calls reads 0.  The
  run has COBYLA's smallest budget, 3N + 2 evaluations, except at N = 20,
  where one evaluation takes seconds and it has 4, so that median is of 3;
* ``sample_1000``: 1000 shots of ``torontonian.sample``.

Every theta sits near the training start: upper entries uniform on
[-0.1, 0.1].  Each entry gives the median wall time of a call in ms and
the minor page faults per call (``ru_minflt`` of the process, summed
over the timed calls and divided by their number).  The process pins
itself to one core and BLAS to one thread first, so two runs on one host
compare the code, not the thread pool.

A shared host drifts in speed, so the medians alone do not compare two
runs.  Before and after the measurements the script runs the fixed
calibration chunk of ``sweepbench/hostspeed.py`` (numpy only, no gbsopt)
back to back for 0.3 s, and ``host_chunk_ms`` gives the median chunk time
of each slice and of both together.  A median divided by the run's
``host_chunk_ms["median"]`` is in host-independent units, so two runs
(two checkouts, or one checkout twice) compare by those ratios:

    python tools/microbench.py                     # this checkout's src/
    python tools/microbench.py --src ../other/src  # another checkout

The last line of standard output is one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

SWEEPBENCH = Path(__file__).resolve().parents[1] / "sweepbench"
SIZES = {8: (2, 4), 10: (2, 5), 12: (3, 4), 16: (4, 4), 20: (4, 5)}
#: a measurement stops after this many seconds or MAX_CALLS timed calls
BUDGET_S = 0.5
MAX_CALLS = 200
ADAM_STEPS = 40
#: evaluations of the exact COBYLA run, by N
EXACT_EVALS = {n: 3 * n + 2 for n in SIZES} | {20: 4}
#: seconds of calibration chunks before and after the measurements
CALIBRATE_S = 0.3


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(call):
    """Median ms and minor faults per call of ``call()``, after one warm-up call."""
    call()
    times, faults, started = [], 0, time.perf_counter()
    while not times or (len(times) < MAX_CALLS and time.perf_counter() - started < BUDGET_S):
        flt, t0 = _minflt(), time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        faults += _minflt() - flt
    return {"median_ms": round(1e3 * statistics.median(times), 4),
            "minflt_per_call": round(faults / len(times), 2), "calls": len(times)}


def _run_figures(optim, qubo, cfg, owner, name):
    """Median ms and faults per call of ``owner.name`` (a module function
    or a method) inside one ``train(qubo, cfg)``, without the first call."""
    times, faults = [], []
    real = getattr(owner, name)

    def timed(*args):
        flt, t0 = _minflt(), time.perf_counter()
        out = real(*args)
        times.append(time.perf_counter() - t0)
        faults.append(_minflt() - flt)
        return out

    setattr(owner, name, timed)
    try:
        optim.train(qubo, cfg)
    finally:
        setattr(owner, name, real)
    times, faults = times[1:], faults[1:]  # the first call is the warm-up
    return {"median_ms": round(1e3 * statistics.median(times), 4),
            "minflt_per_call": round(sum(faults) / len(faults), 2), "calls": len(times)}


def _exact_eval_figures(src, n):
    """The ``exact_eval`` row at N = ``n``, from a process spawned for it."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(_exact_run_figures, src, n).result()


def _exact_run_figures(src, n):
    """``_run_figures`` of ``_Objective._cost`` in one exact COBYLA run at
    N = ``n``, in this process."""
    sys.path.insert(0, str(src))
    from gbsopt import optim
    from gbsopt.problems import assemble_qubo, generate_instance

    qubo = assemble_qubo(generate_instance(*SIZES[n], seed=n))
    cfg = optim.TrainConfig(seed=1, alpha=0.1, max_evals=EXACT_EVALS[n], max_seconds=None)
    return _run_figures(optim, qubo, cfg, optim._Objective, "_cost")


def _chunk_ms(times):
    return round(1e3 * statistics.median(times), 4)


def run(src):
    sys.path.insert(0, str(SWEEPBENCH))
    import hostspeed

    sys.path.insert(0, str(src))
    import numpy as np

    import gbsopt
    from gbsopt import optim
    from gbsopt.gaussian import covariance_blocks, state_from_theta
    from gbsopt.problems import assemble_qubo, generate_instance
    from gbsopt.torontonian import full_distribution, sample

    if Path(gbsopt.__file__).resolve().parent != Path(src).resolve() / "gbsopt":
        raise SystemExit(f"microbench: imported gbsopt from {gbsopt.__file__}")
    before = hostspeed.calibrate(CALIBRATE_S)
    results = {}
    for n, (flights, gates) in SIZES.items():
        rng = np.random.default_rng(n)
        upper = rng.uniform(-0.1, 0.1, (n, n))
        theta = np.triu(upper) + np.triu(upper, 1).T
        m = min(3 * n, n * (n + 1) // 2)
        probes = np.repeat(theta[np.newaxis], 2 * m + 1, axis=0)
        for k, (i, j) in enumerate(zip(*np.triu_indices(n))):
            if k == m:
                break
            for row, step in ((2 * k + 1, 1e-5), (2 * k + 2, -1e-5)):
                probes[row, i, j] += step
                probes[row, j, i] = probes[row, i, j]
        state = state_from_theta(theta)
        seeds = iter(range(10**9))
        qubo = assemble_qubo(generate_instance(flights, gates, seed=n))
        results[str(n)] = {
            "covariance_blocks_1": _measure(lambda: covariance_blocks(theta)),
            "covariance_blocks_probes": _measure(lambda: covariance_blocks(probes)),
            "adam_pass": _run_figures(optim, qubo, optim.TrainConfig(
                seed=1, adam_steps=ADAM_STEPS, max_seconds=None), optim, "_adam_pass"),
            "full_distribution": _measure(lambda: full_distribution(state)),
            "exact_eval": _exact_eval_figures(src, n),
            "sample_1000": _measure(lambda: sample(state, 1000, next(seeds))),
        }
    after = hostspeed.calibrate(CALIBRATE_S)
    host_chunk_ms = {"before": _chunk_ms(before), "after": _chunk_ms(after),
                     "median": _chunk_ms(before + after)}
    return {"src": str(src), "cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "host_chunk_ms": host_chunk_ms, "results": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the gbsopt package (default: ../src)")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(run(Path(args.src).resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

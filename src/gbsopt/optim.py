"""Cost functions and training drivers for the variational loop.

Three interchangeable objectives over the trainable matrix:

* sampled CVaR — draw K click patterns, score them through the QUBO and
  average the ceil(alpha K) lowest energies;
* exact CVaR — the alpha-tail expectation of the enumerated energy
  distribution, with the boundary atom included fractionally;
* analytic expectation — <Q> in closed form from one- and two-mode
  vacuum marginals, polynomial in N: the alpha = 1 cost,
  :func:`expected_energy_analytic` of the state.

Training touches only a masked subset of the parameter matrix entries,
chosen from the smallest QUBO coefficients; everything else stays frozen
at its random initialization.  ``_Objective`` owns a run's theta: the
initial ThetaMatrix, with the trained entries written at their upper and
lower flat slots by one method, for each evaluation and each row of an
ADAM step.  The mask size, the initialization scale and the ADAM step
size are the module constants below.

COBYLA is the only user of scipy, so ``scipy.optimize`` loads on the
first COBYLA run, not at ``import gbsopt``.  ``_run_cobyla`` calls it
through the module-level ``minimize`` below, which stays a module global
because the benchmark's ``optim.minimize`` span rebinds that name.
"""

import math
import time
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from typing import get_args

import numpy as np

from .errors import TrainingFailedError
from .gaussian import (
    TaylorWorkspace,
    ThetaMatrix,
    covariance_blocks,
    pair_vacuum_marginals,
    state_from_theta,
    triangle_indices,
)
from .problems import brute_force_solve
from .torontonian import full_distribution, pattern_probability, sample

__all__ = [
    "TrainConfig",
    "ParameterMask",
    "TrainRecord",
    "build_mask",
    "cvar_from_samples",
    "cvar_exact",
    "expected_energy_analytic",
    "train",
    "DEFAULT_THRESHOLDS",
]

OPTIMIZERS = ("auto", "cobyla", "adam")
DEFAULT_THRESHOLDS = (0.1, 0.01)

#: trained entries per mode: min(3N, N(N+1)/2) entries of theta move
MASK_PER_MODE = 3
#: theta starts i.i.d. uniform on [-INIT_SCALE, INIT_SCALE]; COBYLA's
#: initial trust radius is half of it
INIT_SCALE = 0.1
#: ADAM step size
ADAM_LR = 0.05

#: central finite-difference step for gradients of the analytic cost
FD_STEP = 1e-5

#: annotations that admit any value of a wider numeric type
_NUMERIC = {int: Integral, float: Real}


def check_field_types(obj):
    """Raise ValueError unless each field of the dataclass ``obj`` has its
    annotated type; int admits any integral number, float any real one,
    and neither admits a bool."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        types = get_args(f.type) or (f.type,)
        accepted = tuple(_NUMERIC.get(t, t) for t in types)
        if isinstance(value, bool) or not isinstance(value, accepted):
            names = " | ".join(t.__name__ for t in types)
            raise ValueError(f"{f.name} = {value!r} is not of type {names}")


def checked_floats(key, values):
    """``values`` as a tuple of floats; ValueError naming ``key`` when it is
    a string or not a list of numbers."""
    if isinstance(values, str):
        raise ValueError(f"{key} = {values!r} must be a list of numbers")
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {key}: {exc}") from exc


def checked_thresholds(thresholds):
    """``thresholds`` as a nonempty tuple of floats, each a finite t with
    0 <= t < 1 (a fidelity above t counts as success); ValueError otherwise."""
    values = checked_floats("thresholds", thresholds)
    if not values:
        raise ValueError("at least one threshold is required")
    for t in values:
        if not 0.0 <= t < 1.0:  # NaN fails
            raise ValueError(f"threshold {t!r} must be finite with 0 <= t < 1")
    return values


@dataclass(frozen=True)
class TrainConfig:
    """The whole config of one training run (a record's ``config`` block),
    and the one owner of its defaults, which plans, sweeps and ``gbsopt
    train`` all start from.

    ``shots_k = 0`` selects exact-distribution mode.  ``optimizer`` is
    "cobyla" (derivative-free linear-approximation trust region), "adam"
    (first-order on the analytic alpha = 1 cost) or "auto", which
    :meth:`resolved` picks one of, as it fills in ``max_evals``.  A run
    succeeds at each of ``thresholds`` below its fidelity.  The mask
    size, the initialization scale and the ADAM step size are not knobs:
    see ``MASK_PER_MODE``, ``INIT_SCALE`` and ``ADAM_LR``.
    """

    seed: int
    alpha: float = 1.0
    shots_k: int = 0
    max_evals: int | None = None
    optimizer: str = "auto"
    adam_steps: int = 500
    max_seconds: float | None = 600.0
    thresholds: tuple = DEFAULT_THRESHOLDS

    def __post_init__(self):
        object.__setattr__(self, "thresholds", checked_thresholds(self.thresholds))
        check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.shots_k < 0:
            raise ValueError("shots_k must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.optimizer == "adam" and (self.alpha != 1.0 or self.shots_k != 0):
            raise ValueError("the adam path trains the analytic alpha=1 cost in exact mode")
        if self.adam_steps < 1:
            raise ValueError("adam_steps must be >= 1")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.max_seconds is not None and not 0.0 < self.max_seconds < math.inf:
            raise ValueError(f"max_seconds = {self.max_seconds!r} must be finite and > 0")

    def resolved(self, n):
        """The config of a run on an N-variable problem, as its record holds
        it: ``max_evals`` None becomes 50N, and "auto" becomes "adam" for
        exact alpha = 1 and "cobyla" otherwise.  It refuses no size: the
        one mode cap, 20, is the click law's and the brute force's.
        """
        optimizer = self.optimizer
        if optimizer == "auto":
            optimizer = "adam" if self.alpha == 1.0 and self.shots_k == 0 else "cobyla"
        max_evals = self.max_evals if self.max_evals is not None else 50 * n
        return replace(self, max_evals=max_evals, optimizer=optimizer)


@dataclass(frozen=True)
class ParameterMask:
    """Trainable (i, j) positions, i <= j, into the parameter matrix."""

    indices: tuple

    def __post_init__(self):
        seen = set()
        for i, j in self.indices:
            if i > j:
                raise ValueError("mask indices must satisfy i <= j")
            if (i, j) in seen:
                raise ValueError("duplicate mask index")
            seen.add((i, j))
        object.__setattr__(self, "indices", tuple((int(i), int(j)) for i, j in self.indices))

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class TrainRecord:
    """Outcome of one training run.

    ``cost_trace`` holds (evaluation index, cost) pairs in evaluation
    order; ``best_theta`` attains the minimum recorded cost.  Fidelity is
    the exact probability mass the trained state puts on the set of
    ground-truth minimizers, and ``success`` maps each threshold t to
    fidelity > t.
    """

    best_theta: ThetaMatrix
    cost_trace: tuple
    n_evals: int
    final_fidelity: float
    success: dict
    timed_out: bool = False


def build_mask(qubo, mask_size):
    """Positions of the ``mask_size`` smallest QUBO coefficients.

    Candidates are the upper-triangle (i, j), i <= j, ranked by signed
    value (most favorable couplings first).  Ties break lexicographically
    by (i, j), so the mask is deterministic.
    """
    rows, cols = triangle_indices(qubo.n)
    if mask_size > rows.size:
        raise ValueError(f"mask_size {mask_size} exceeds {rows.size} candidates")
    ranked = np.lexsort((cols, rows, qubo.q[rows, cols]))[:mask_size]
    return ParameterMask(indices=tuple(zip(rows[ranked], cols[ranked])))


def cvar_from_samples(energies, alpha):
    """Mean of the ceil(alpha K) lowest values; alpha = 1 is the plain mean."""
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size == 0:
        raise ValueError("need a nonempty 1-D energy list")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    m = math.ceil(alpha * energies.size)
    if m >= energies.size:
        return float(energies.mean())
    return float(np.partition(energies, m - 1)[:m].mean())


def cvar_exact(qubo, dist, alpha):
    """Exact alpha-tail expectation of the discrete energy distribution.

    Patterns are sorted by energy; probability mass is accumulated up to
    alpha with the boundary atom included fractionally, so the averaged
    mass is exactly alpha (at alpha = 1, all of it: <Q> to roundoff).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    energies = qubo.pattern_energies()
    if energies.shape != dist.probs.shape:
        raise ValueError("QUBO size does not match the distribution")
    order = qubo.energy_order()
    e = energies[order]
    p = dist.probs[order]
    cum = np.cumsum(p)
    boundary = int(np.searchsorted(cum, alpha, side="left"))
    boundary = min(boundary, e.size - 1)
    below = cum[boundary - 1] if boundary > 0 else 0.0
    acc = float(np.dot(p[:boundary], e[:boundary]))
    acc += (alpha - below) * e[boundary]
    return acc / alpha


def _energies_from_blocks(blocks, qubo):
    """<Q> for covariance blocks stacked as (2, ..., N, N), by inclusion-exclusion
    on vacuum marginals:

      <P1_i>      = 1 - pv(i)
      <P1_i P1_j> = 1 - pv(i) - pv(j) + pv(ij)

    so the whole expectation costs the O(N^2) closed-form 1 x 1 and 2 x 2
    minors of P and Q per state.  Each state's N one-mode terms and
    N(N-1)/2 pair terms are added left to right by one cumulative sum,
    then the constant sum(q_ii) + offset: a row's bits never depend on the
    rows stacked with it.
    """
    ii, jj = triangle_indices(qubo.n, 1)  # pairs i < j in row-major order
    pv1, pv2 = pair_vacuum_marginals(blocks)
    diag = np.diag(qubo.q)
    joint = 1.0 - pv1[..., ii] - pv1[..., jj] + pv2
    terms = np.concatenate([pv1 * -diag, joint * (2.0 * qubo.q[ii, jj])], axis=-1)
    return np.cumsum(terms, axis=-1)[..., -1] + (diag.sum() + qubo.offset)


def expected_energy_analytic(qubo, state):
    """Closed-form <Q> in a Gaussian state (the alpha = 1 cost).

    Agrees with the enumeration expectation to 1e-8 but needs only one-
    and two-mode vacuum marginals, i.e. the 1 x 1 and 2 x 2 principal
    minors of P and Q: row 0 of a one-row stack.
    """
    if state.n_modes != qubo.n:
        raise ValueError("state and QUBO dimensions differ")
    return float(_energies_from_blocks(state.blocks[:, np.newaxis], qubo)[0])


class _EvalBudget(Exception):
    """Internal signal: evaluation or wall-clock budget exhausted."""


class _Objective:
    """Masked-parameter objective with tracing, budget and best tracking."""

    def __init__(self, qubo, cfg, theta_init, mask):
        self.qubo = qubo
        self.cfg = cfg
        self.n = qubo.n
        self.theta_init = theta_init.entries
        i, j = np.array(mask.indices).T
        self.slots = (i * self.n + j, j * self.n + i)  # flat; one slot on the diagonal
        self.trace = []
        self.n_evals = 0
        self.best_cost = np.inf
        self.best_params = self.theta_init[i, j]
        self.started = time.monotonic()
        self.timed_out = False

    def write_params(self, rows, thetas):
        """Write row r of the (R, m) parameters ``rows`` at the trained upper
        and lower flat slots of ``thetas[r]``, in place; ``thetas`` is an
        (R, N, N) stack, and its other entries are left as they are."""
        flat = thetas.reshape(len(thetas), -1)
        for slots in self.slots:
            flat[:, slots] = rows

    def theta_for(self, params):
        """The initial theta with ``params`` written at the trained slots."""
        theta = self.theta_init[np.newaxis].copy()
        self.write_params([params], theta)
        return ThetaMatrix(theta[0])

    def _check_budget(self):
        if self.n_evals == 0:
            return  # every run gets at least one evaluation
        # the evaluation cap governs the derivative-free path; adam stops
        # at adam_steps instead (its probe evaluations are only counted)
        if self.cfg.optimizer != "adam" and self.n_evals >= self.cfg.max_evals:
            raise _EvalBudget
        if self.cfg.max_seconds is not None and (
            time.monotonic() - self.started > self.cfg.max_seconds
        ):
            self.timed_out = True
            raise _EvalBudget

    def _cost(self, params):
        cfg = self.cfg
        state = state_from_theta(self.theta_for(params))
        if cfg.shots_k > 0:
            shot_seed = np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(1, self.n_evals)
            )
            patterns = sample(state, cfg.shots_k, shot_seed)
            return cvar_from_samples(self.qubo.values(patterns), cfg.alpha)
        if cfg.alpha < 1.0:
            return cvar_exact(self.qubo, full_distribution(state), cfg.alpha)
        return expected_energy_analytic(self.qubo, state)

    def __call__(self, params):
        self._check_budget()
        return self._record(params, self._cost(params))

    def _record(self, params, cost):
        """Count, trace and best-track one evaluation of ``params``."""
        self.n_evals += 1
        self.trace.append((self.n_evals, float(cost)))
        if not np.isfinite(cost):
            raise TrainingFailedError("non-finite training cost", trace=self.trace)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_params = np.array(params)
        return cost


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    Importing ``scipy.optimize`` takes longer than the rest of ``import
    gbsopt`` with numpy (0.55 s against 0.2 s on one core of a shared
    Intel Xeon host); after the first call the import is a
    ``sys.modules`` lookup.  This is a module-level function, not an
    import inside ``_run_cobyla``, so that rebinding ``optim.minimize``
    (the benchmark's ``optim.minimize`` span) still sees every COBYLA run.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _run_cobyla(objective, x0):
    try:
        minimize(
            objective,
            x0,
            method="COBYLA",
            options={
                "maxiter": max(objective.cfg.max_evals, len(x0) + 2),  # PRIMA's floor, unwarned
                "rhobeg": 0.5 * INIT_SCALE,
                "tol": 1e-6,
            },
        )
    except _EvalBudget:
        pass


def _adam_pass(objective, rows, thetas, work):
    """Evaluate the (2m + 1, m) parameter ``rows`` in one batched pass.

    Row 0 is the iterate and the other rows its probes.  The rows are
    written into ``thetas``, the run's (2m + 1, N, N) stack, in place; one
    :func:`covariance_blocks` call in ``work``, the run's
    :class:`TaylorWorkspace`, builds every row's blocks and one
    :func:`_energies_from_blocks` call their costs, each bit for bit its
    one-row result.  The iterate is recorded like any evaluation; the
    probes are only counted.  A probe whose e^{+-2 theta} overflows raises
    InvalidStateError before the iterate is recorded, not just after it;
    only a non-finite iterate cost in that same step would have raised
    first.  Returns the 2m probe costs, +/- pairs adjacent; the blocks
    stay in ``work`` until the next pass overwrites them.
    """
    objective.write_params(rows, thetas)
    ThetaMatrix(thetas[0])  # the iterate's checks, as every evaluation makes them
    costs = _energies_from_blocks(covariance_blocks(thetas, work), objective.qubo)
    objective._record(rows[0], float(costs[0]))
    objective.n_evals += costs.size - 1
    if not np.all(np.isfinite(costs)):
        raise TrainingFailedError("non-finite training cost", trace=objective.trace)
    return costs[1:]


def _run_adam(objective, x0):
    """ADAM on the analytic cost; gradients by central differences.

    Each step makes one batched pass (:func:`_adam_pass`) over the 2m + 1
    rows ``params + offsets``.  ``offsets`` is a constant (2m + 1, m)
    matrix: row 0 is zero, so row 0 of the sum is the iterate itself
    (x + 0.0 = x), and rows 2k + 1 and 2k + 2 hold +FD_STEP and -FD_STEP
    in column k, the probes of parameter k (x + (-h) = x - h).  The stack
    of 2m + 1 thetas, which starts as copies of the initial theta, and
    the :class:`TaylorWorkspace` are allocated when the run starts and
    reused by every step, so a step allocates no N x N buffer of its own.
    The iterate is one evaluation in ``n_evals`` and one trace entry; the
    2m probes are counted against ``n_evals`` but not traced.
    """
    cfg = objective.cfg
    params = np.array(x0)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    k = np.arange(params.size)
    offsets = np.zeros((2 * k.size + 1, k.size))
    offsets[2 * k + 1, k] = FD_STEP
    offsets[2 * k + 2, k] = -FD_STEP
    thetas = np.repeat(objective.theta_init[np.newaxis], len(offsets), axis=0)
    work = TaylorWorkspace(len(offsets), objective.n)
    for step in range(1, cfg.adam_steps + 1):
        try:
            objective._check_budget()
        except _EvalBudget:
            break
        costs = _adam_pass(objective, params + offsets, thetas, work)
        grad = (costs[0::2] - costs[1::2]) / (2.0 * FD_STEP)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        params = params - ADAM_LR * m_hat / (np.sqrt(v_hat) + eps)
    else:
        # record the cost at the final iterate so best_theta can claim it;
        # like every evaluation, this one checks the time budget first
        try:
            objective(params)
        except _EvalBudget:
            pass


def state_fidelity(theta, ground_truth):
    """Probability mass the state puts on the ground-truth minimizers."""
    state = state_from_theta(theta)
    return float(
        sum(pattern_probability(state, row) for row in ground_truth.minimizers)
    )


def train(qubo, cfg):
    """One training run: masked initialization, optimization, fidelity.

    The parameter matrix starts with all upper-triangle entries i.i.d.
    uniform on [-INIT_SCALE, INIT_SCALE]; only the min(MASK_PER_MODE * N,
    N(N+1)/2) entries chosen by ``build_mask`` move.  ``cfg`` is resolved
    for N first (see :meth:`TrainConfig.resolved`), and success is judged
    at ``cfg.thresholds``.  The returned record is a pure function of
    (qubo, cfg).
    """
    cfg = cfg.resolved(qubo.n)

    ground_truth = brute_force_solve(qubo)
    n_upper = qubo.n * (qubo.n + 1) // 2
    mask = build_mask(qubo, min(MASK_PER_MODE * qubo.n, n_upper))
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    )
    theta_init = ThetaMatrix.from_upper(qubo.n, init_rng.uniform(-INIT_SCALE, INIT_SCALE, n_upper))

    objective = _Objective(qubo, cfg, theta_init, mask)
    x0 = np.array(objective.best_params)
    if cfg.optimizer == "adam":
        _run_adam(objective, x0)
    else:
        _run_cobyla(objective, x0)
    if not objective.trace:
        raise TrainingFailedError("no successful cost evaluation", trace=())

    best_theta = objective.theta_for(objective.best_params)
    fidelity = state_fidelity(best_theta, ground_truth)
    return TrainRecord(
        best_theta=best_theta,
        cost_trace=tuple(objective.trace),
        n_evals=objective.n_evals,
        final_fidelity=fidelity,
        success={t: fidelity > t for t in cfg.thresholds},
        timed_out=objective.timed_out,
    )

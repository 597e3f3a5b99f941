"""Cost functions and training drivers for the variational loop.

Three interchangeable objectives over the trainable matrix:

* sampled CVaR — draw K click patterns, score them through the QUBO and
  average the ceil(alpha K) lowest energies;
* exact CVaR — the alpha-tail expectation of the enumerated energy
  distribution, with the boundary atom included fractionally;
* analytic expectation — <Q> written in closed form from one- and
  two-mode vacuum marginals (the alpha = 1 cost), polynomial in N.

Training touches only a masked subset of the parameter matrix entries,
chosen from the smallest QUBO coefficients; everything else stays frozen
at its random initialization.  The mask size, the initialization scale
and the ADAM step size are the module constants below.

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

from .errors import CapacityError, TrainingFailedError
from .gaussian import (
    ThetaMatrix,
    covariance_blocks,
    pair_vacuum_marginals,
    state_from_theta,
    symmetric_from_upper,
)
from .problems import brute_force_solve, expected_energy_exact
from .torontonian import (
    ENUMERATION_CAP,
    full_distribution,
    pattern_probability,
    sample,
)

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

OPTIMIZERS = ("cobyla", "adam")
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


@dataclass(frozen=True)
class TrainConfig:
    """Resolved knobs for one training run.

    ``shots_k = 0`` selects exact-distribution mode; ``max_evals``
    defaults to 50N once the problem size is known.  ``optimizer`` is
    "cobyla" (derivative-free linear-approximation trust region) or "adam"
    (first-order on the analytic alpha = 1 cost).  The mask size, the
    initialization scale and the ADAM step size are not knobs: see
    ``MASK_PER_MODE``, ``INIT_SCALE`` and ``ADAM_LR``.
    """

    seed: int
    alpha: float = 1.0
    shots_k: int = 0
    max_evals: int | None = None
    optimizer: str = "cobyla"
    adam_steps: int = 500
    max_seconds: float | None = None

    def __post_init__(self):
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
        """Fill size-dependent defaults for an N-variable problem."""
        max_evals = self.max_evals if self.max_evals is not None else 50 * n
        return replace(self, max_evals=max_evals)


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
    rows, cols = np.triu_indices(qubo.n)
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
    mass is exactly alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return expected_energy_exact(qubo, dist)
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
    minors of P and Q per state.
    """
    ii, jj = np.triu_indices(qubo.n, 1)  # pairs i < j in row-major order
    pv1, pv2 = pair_vacuum_marginals(blocks)
    diag = np.diag(qubo.q)
    out = pv1 @ (-diag) + diag.sum()
    if ii.size:
        joint = 1.0 - pv1[..., ii] - pv1[..., jj] + pv2
        out = out + joint @ (2.0 * qubo.q[ii, jj])
    return out + qubo.offset


def _analytic_energies(thetas, qubo):
    """Batched <Q> for a (B, N, N) stack of parameter matrices."""
    return _energies_from_blocks(covariance_blocks(thetas), qubo)


def expected_energy_analytic(qubo, state):
    """Closed-form <Q> in a Gaussian state (the alpha = 1 cost).

    Agrees with the enumeration expectation to 1e-8 but needs only one-
    and two-mode vacuum marginals, i.e. the 1 x 1 and 2 x 2 principal
    minors of P and Q.
    """
    if state.n_modes != qubo.n:
        raise ValueError("state and QUBO dimensions differ")
    return float(_energies_from_blocks(state.blocks, qubo))


class _EvalBudget(Exception):
    """Internal signal: evaluation or wall-clock budget exhausted."""


class _Objective:
    """Masked-parameter objective with tracing, budget and best tracking."""

    def __init__(self, qubo, cfg, theta_init_upper, mask):
        self.qubo = qubo
        self.cfg = cfg
        self.n = qubo.n
        self.upper = np.array(theta_init_upper)
        slot_of = np.zeros((self.n, self.n), dtype=int)
        slot_of[np.triu_indices(self.n)] = np.arange(self.upper.size)
        self.mask_slots = np.array([slot_of[p] for p in mask.indices])
        self.trace = []
        self.n_evals = 0
        self.best_cost = np.inf
        self.best_params = self.upper[self.mask_slots]
        self.started = time.monotonic()
        self.timed_out = False

    def theta_for(self, params):
        return ThetaMatrix(self.theta_matrix_for(params))

    def theta_matrix_for(self, params):
        """Plain (..., N, N) ndarrays for a (..., mask size) stack of params."""
        params = np.asarray(params)
        upper = np.broadcast_to(self.upper, params.shape[:-1] + self.upper.shape).copy()
        upper[..., self.mask_slots] = params
        return symmetric_from_upper(self.n, upper)

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
        theta = self.theta_for(params)
        if cfg.shots_k > 0:
            state = state_from_theta(theta)
            shot_seed = np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(1, self.n_evals)
            )
            patterns = sample(state, cfg.shots_k, shot_seed)
            return cvar_from_samples(self.qubo.values(patterns), cfg.alpha)
        if cfg.alpha < 1.0:
            state = state_from_theta(theta)
            return cvar_exact(self.qubo, full_distribution(state), cfg.alpha)
        return float(_analytic_energies(theta.entries[np.newaxis], self.qubo)[0])

    def __call__(self, params):
        self._check_budget()
        cost = self._cost(params)
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
                "maxiter": objective.cfg.max_evals,
                "rhobeg": 0.5 * INIT_SCALE,
                "tol": 1e-6,
            },
        )
    except _EvalBudget:
        pass


def _run_adam(objective, x0):
    """ADAM on the analytic cost; gradients by central differences.

    The 2m probe evaluations per step go through the batched analytic
    evaluator and are counted against ``n_evals``; the trace records one
    entry per step (the cost at the current iterate).
    """
    cfg = objective.cfg
    params = np.array(x0)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    dim = params.size
    slots = np.arange(dim)
    for step in range(1, cfg.adam_steps + 1):
        try:
            objective(params)
        except _EvalBudget:
            break
        # rows 2k and 2k + 1 shift parameter k by +FD_STEP and -FD_STEP
        probes = np.repeat(params[np.newaxis], 2 * dim, axis=0)
        probes[2 * slots, slots] += FD_STEP
        probes[2 * slots + 1, slots] -= FD_STEP
        costs = _analytic_energies(objective.theta_matrix_for(probes), objective.qubo)
        objective.n_evals += 2 * dim
        if not np.all(np.isfinite(costs)):
            raise TrainingFailedError("non-finite training cost", trace=objective.trace)
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


def train(qubo, cfg, thresholds=DEFAULT_THRESHOLDS):
    """One training run: masked initialization, optimization, fidelity.

    The parameter matrix starts with all upper-triangle entries i.i.d.
    uniform on [-INIT_SCALE, INIT_SCALE]; only the min(MASK_PER_MODE * N,
    N(N+1)/2) entries chosen by ``build_mask`` move.  Exact-distribution
    mode requires N within the enumeration cap.  The returned record is a
    pure function of (qubo, cfg, thresholds).
    """
    cfg = cfg.resolved(qubo.n)
    if cfg.shots_k == 0 and cfg.alpha < 1.0 and qubo.n > ENUMERATION_CAP:
        raise CapacityError("exact-distribution training exceeds the enumeration cap")

    ground_truth = brute_force_solve(qubo)
    n_upper = qubo.n * (qubo.n + 1) // 2
    mask = build_mask(qubo, min(MASK_PER_MODE * qubo.n, n_upper))
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    )
    theta_init_upper = init_rng.uniform(-INIT_SCALE, INIT_SCALE, n_upper)

    objective = _Objective(qubo, cfg, theta_init_upper, mask)
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
        success={float(t): fidelity > t for t in thresholds},
        timed_out=objective.timed_out,
    )

"""Pure zero-displacement Gaussian states from a symmetric parameter matrix.

Conventions used throughout the package:

* mode operators are ordered as (a_1..a_N, a_1^dag..a_N^dag), so every
  covariance-level matrix is 2N x 2N with mode i occupying rows/columns
  i and i + N;
* the Husimi covariance of the vacuum is the identity.  In this scaling
  ``O = I - inv(Sigma)`` feeds the threshold-detector probability law with
  no extra prefactors and ``P(vacuum on T) = 1 / sqrt(det Sigma_T)``.

The state is parameterized by a real symmetric matrix: its Autonne-Takagi
factorization ``theta = U diag(r) U^T`` yields the per-mode squeezing
gains r_i >= 0 and the passive interferometer U.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

__all__ = [
    "ThetaMatrix",
    "TakagiFactors",
    "GaussianState",
    "takagi_decompose",
    "build_state",
    "state_from_theta",
    "vacuum_marginal",
    "symmetric_from_upper",
]

#: max-abs tolerance for unitarity / reconstruction / hermiticity checks
DECOMPOSITION_TOL = 1e-10


def _frozen_array(a, dtype=None):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def symmetric_from_upper(n, upper):
    """Symmetric (..., n, n) arrays from row-major upper triangles.

    ``upper`` has shape (..., n(n+1)/2) and lists each triangle, diagonal
    included, in ``np.triu_indices(n)`` order: the canonical parameter
    order of the trainable matrix.
    """
    upper = np.asarray(upper, dtype=float)
    rows, cols = np.triu_indices(n)
    if upper.shape[-1:] != rows.shape:
        raise ValueError(f"expected {rows.size} upper-triangle entries, got {upper.shape}")
    out = np.zeros(upper.shape[:-1] + (n, n))
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper
    return out


@dataclass(frozen=True)
class ThetaMatrix:
    """Real symmetric N x N parameter matrix.

    Entries must be finite and exactly symmetric; use :meth:`from_upper`
    to build one from the row-major upper-triangle vector, which is the
    representation the optimizers work on.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"theta must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("theta needs at least one mode")
        if not np.all(np.isfinite(entries)):
            raise ValueError("theta entries must be finite")
        if not np.array_equal(entries, entries.T):
            raise ValueError("theta must be exactly symmetric")
        object.__setattr__(self, "entries", _frozen_array(entries))

    @property
    def n_modes(self):
        return self.entries.shape[0]

    @classmethod
    def from_upper(cls, n_modes, upper):
        """Assemble from the row-major upper triangle (diagonal included)."""
        return cls(symmetric_from_upper(n_modes, upper))

    def upper(self):
        """Row-major upper triangle as a vector (inverse of from_upper)."""
        return self.entries[np.triu_indices(self.n_modes)]


@dataclass(frozen=True)
class TakagiFactors:
    """Autonne-Takagi factorization: unitary U and squeezings r >= 0.

    Satisfies ``U diag(r) U^T = theta`` with r sorted descending.
    """

    unitary: np.ndarray
    squeezings: np.ndarray

    def __post_init__(self):
        u = _frozen_array(self.unitary, dtype=complex)
        r = _frozen_array(self.squeezings, dtype=float)
        n = r.shape[0]
        if u.shape != (n, n):
            raise ValueError("unitary / squeezings shape mismatch")
        if np.any(r < 0):
            raise ValueError("squeezings must be nonnegative")
        if np.abs(u.conj().T @ u - np.eye(n)).max() > DECOMPOSITION_TOL:
            raise ValueError("factor is not unitary to tolerance")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "squeezings", r)

    @property
    def n_modes(self):
        return self.squeezings.shape[0]


@dataclass(frozen=True)
class GaussianState:
    """Husimi covariance Sigma plus the derived quantities the detectors need.

    ``o_matrix`` is ``I - inv(Sigma)``; ``sqrt_det_sigma`` normalizes the
    click-pattern probability law.  Instances are immutable and safe to
    share across threads.
    """

    sigma: np.ndarray
    o_matrix: np.ndarray
    sqrt_det_sigma: float

    def __post_init__(self):
        sigma = _frozen_array(self.sigma, dtype=complex)
        o = _frozen_array(self.o_matrix, dtype=complex)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise InvalidStateError(f"covariance has invalid shape {sigma.shape}")
        if o.shape != sigma.shape:
            raise InvalidStateError("O matrix shape does not match covariance")
        if not self.sqrt_det_sigma > 0:
            raise InvalidStateError("sqrt(det Sigma) must be positive")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "o_matrix", o)

    @property
    def n_modes(self):
        return self.sigma.shape[0] // 2


def takagi_decompose(theta):
    """Autonne-Takagi factorization of a real symmetric matrix.

    For real symmetric input the factorization reduces to the
    eigendecomposition ``theta = V diag(lam) V^T`` with negative
    eigenvalues absorbed into column phases: ``r_i = |lam_i|`` and
    ``U_i = V_i`` for lam_i >= 0, ``U_i = 1j V_i`` otherwise.  Squeezings
    are returned in descending order, ties broken by the ascending
    eigendecomposition index, so the factorization is reproducible.
    """
    if not isinstance(theta, ThetaMatrix):
        theta = ThetaMatrix(theta)
    unitary, r = takagi_batch(theta.entries)
    order = np.argsort(-r, kind="stable")
    return TakagiFactors(unitary=unitary[:, order], squeezings=r[order])


def takagi_batch(thetas):
    """Unsorted Takagi factors (U, r) of real symmetric matrices on the last two axes.

    Columns keep the ascending eigendecomposition order; no validation.
    """
    lam, vec = np.linalg.eigh(thetas)
    phases = np.where(lam >= 0, 1.0 + 0.0j, 1.0j)
    return vec.astype(complex) * phases[..., np.newaxis, :], np.abs(lam)


def husimi_sigmas(u, r):
    """Husimi covariances for Takagi factors stacked on leading axes.

    With C = diag(cosh 2r) and S = diag(sinh 2r),

        Sigma = [[U C U^dag, U S U^T], [(U S U^T)*, (U C U^dag)*]] / 2 + I/2,

    which gives Sigma = I for the vacuum.  The columns of U are used in
    the order given: reordering them changes the result in the last bits.
    """
    n = r.shape[-1]
    ucu = (u * np.cosh(2.0 * r)[..., np.newaxis, :]) @ np.conj(np.swapaxes(u, -1, -2))
    usu = (u * np.sinh(2.0 * r)[..., np.newaxis, :]) @ np.swapaxes(u, -1, -2)
    sigmas = np.empty(r.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    sigmas[..., :n, :n] = ucu
    sigmas[..., :n, n:] = usu
    sigmas[..., n:, :n] = usu.conj()
    sigmas[..., n:, n:] = ucu.conj()
    sigmas *= 0.5
    sigmas += 0.5 * np.eye(2 * n)
    return sigmas


def build_state(factors):
    """Validated Gaussian state of squeezed vacua sent through an interferometer.

    Sigma comes from :func:`husimi_sigmas`; ``O = I - inv(Sigma)`` is
    computed by direct inversion and ``sqrt(det Sigma)`` from the
    log-determinant; both are validated here so downstream probability
    code can trust them.
    """
    sigma = husimi_sigmas(factors.unitary, factors.squeezings)

    herm_defect = np.abs(sigma - sigma.conj().T).max()
    if herm_defect > DECOMPOSITION_TOL:
        raise InvalidStateError(f"covariance not Hermitian (defect {herm_defect:.2e})")
    # Husimi positivity in this scaling: Sigma - I/2 is positive definite
    # (eigenvalues pair up as cosh(r) exp(+-r), each above 1/2, with
    # det Sigma = prod cosh^2 r >= 1).
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() < 0.5 - DECOMPOSITION_TOL:
        raise InvalidStateError(
            f"covariance eigenvalue {eigs.min()} below the Husimi floor 1/2"
        )

    return _state_from_sigma(sigma)


def _state_from_sigma(sigma):
    """GaussianState with O and sqrt(det Sigma) derived and checked."""
    try:
        o_matrix = np.eye(sigma.shape[0]) - np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:  # unreachable for finite r; guard anyway
        raise InvalidStateError("covariance is numerically singular") from exc

    sign, logdet = np.linalg.slogdet(sigma)
    if abs(sign - 1.0) > 1e-8:
        raise InvalidStateError(f"det Sigma is not real positive (sign {sign})")
    if logdet.real < -1e-10:
        raise InvalidStateError(f"det Sigma = {np.exp(logdet.real)} below 1")
    sqrt_det = float(np.exp(0.5 * logdet.real))
    return GaussianState(sigma=sigma, o_matrix=o_matrix, sqrt_det_sigma=sqrt_det)


def state_from_theta(theta):
    """Convenience composition of takagi_decompose and build_state."""
    return build_state(takagi_decompose(theta))


def reduced_sigmas(sigmas, subsets):
    """Reduced covariances on mode subsets (keeps the a / a^dag pairing).

    ``sigmas`` stacks 2N x 2N covariances on its leading axes; ``subsets``
    is an integer array whose last axis lists the modes of one subset.
    The result has shape ``sigmas.shape[:-2] + subsets.shape[:-1] + (2k, 2k)``.
    """
    subsets = np.asarray(subsets)
    ix = np.concatenate([subsets, subsets + sigmas.shape[-1] // 2], axis=-1)
    return sigmas[..., ix[..., :, np.newaxis], ix[..., np.newaxis, :]]


def reduced_state(state, modes):
    """The reduced Gaussian state on ``modes``, in the order given."""
    return _state_from_sigma(reduced_sigmas(state.sigma, modes))


def vacuum_marginals(sigmas, subsets):
    """Probability of zero photons on every mode of each subset.

    Equals ``1 / sqrt(det Sigma_T)`` where Sigma_T is the reduced Husimi
    covariance on T; outcomes on the remaining modes are unconstrained.
    Shapes broadcast as in :func:`reduced_sigmas`.
    """
    det = np.linalg.det(reduced_sigmas(sigmas, subsets))
    re = det.real
    if not np.all((re > 0) & (np.abs(det.imag) <= 1e-8 * np.maximum(1.0, re))):
        raise InvalidStateError("reduced covariance determinant not real positive")
    return 1.0 / np.sqrt(re)


def vacuum_marginal(state, modes):
    """P(no photons on every mode in ``modes``) for one state."""
    return float(vacuum_marginals(state.sigma, _checked_modes(state.n_modes, modes)))


def _checked_modes(n_modes, modes):
    modes = np.asarray(sorted(set(int(m) for m in modes)), dtype=int)
    if modes.size == 0:
        raise ValueError("mode subset must be nonempty")
    if modes.min() < 0 or modes.max() >= n_modes:
        raise ValueError(f"mode indices must lie in [0, {n_modes})")
    return modes

"""Exact threshold-detector statistics for Gaussian states.

The probability of a click pattern with clicked-mode set S is

    p(S) = Tor(O_S) / sqrt(det Sigma),

where O = I - inv(Sigma), O_S keeps rows/columns {i, i+N : i in S}, and
the Torontonian is the subset inclusion-exclusion sum

    Tor(A) = sum over Z subsets of [n] of (-1)^(n-|Z|) / sqrt(det(I - A_Z)),

with the empty set contributing (-1)^n.  Everything here is exact up to
floating point; the cost is exponential in the number of clicked modes,
which is the intended desk-scale regime.

Pattern indexing convention: bit i of an integer pattern index is the
outcome of mode i (index = sum_i d_i * 2^i).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidStateError
from .gaussian import GaussianState, reduced_state

__all__ = [
    "torontonian",
    "pattern_probability",
    "PatternDistribution",
    "full_distribution",
    "sample",
    "all_patterns",
    "pattern_index",
    "index_to_pattern",
]

#: exact enumeration (and exact-mode training) is refused above this many modes
ENUMERATION_CAP = 16

#: negative probabilities within this tolerance are clamped to zero;
#: anything more negative is treated as a corrupted state
NEGATIVE_CLAMP = 1e-12

NORMALIZATION_TOL = 1e-9

#: max-abs asymmetry tolerated in an O-submatrix, whose entries lie in
#: [-1, 1] when it is valid, so the tolerance is absolute
HERMITIAN_TOL = 1e-10

#: upper bound on the gathered submatrices of one batch (1 MiB of float64)
BATCH_BYTES = 1 << 20


def pattern_index(pattern):
    """Integer index of a click pattern (bit i = mode i)."""
    idx = 0
    for i, b in enumerate(pattern):
        if b:
            idx |= 1 << i
    return idx


def index_to_pattern(index, n_modes):
    """Inverse of :func:`pattern_index`."""
    return np.array([(index >> i) & 1 for i in range(n_modes)], dtype=np.int8)


def all_patterns(n_modes):
    """(2^N, N) matrix of all click patterns in index order."""
    idx = np.arange(1 << n_modes, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_modes)[None, :]) & 1).astype(np.int8)


@functools.lru_cache(maxsize=None)
def _subset_levels(n):
    """Subsets of [n] grouped by size k = 1..n, as (masks, ix) pairs.

    ``masks`` holds the bitmasks of size k in ascending order; row r of
    ``ix`` lists the rows/columns {i, i + n : i in masks[r]} that the
    subset keeps of a 2n x 2n matrix.  uint8 keeps the cache small; the
    arrays are read-only, since every caller shares them.
    """
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    sizes = bits.sum(axis=1)
    levels = []
    for k in range(1, n + 1):
        level = masks[sizes == k]
        idx = np.nonzero(bits[level])[1].reshape(level.size, k)
        ix = np.concatenate([idx, idx + n], axis=1).astype(np.uint8)
        level.setflags(write=False)
        ix.setflags(write=False)
        levels.append((level, ix))
    return tuple(levels)


def _subset_determinants(a, n):
    """det(I - A_Z) for every Z subset of [n], indexed by bitmask.

    I - A_Z is a principal submatrix of inv(Sigma) for any O-submatrix A
    of a valid Gaussian state, so it is Hermitian positive definite: the
    determinant is the squared product of its Cholesky diagonal.  Subsets
    are processed by size, in batches of at most BATCH_BYTES of gathered
    submatrices.  A real A (any state built from a real theta) is handled
    in float64.  Input that is not Hermitian, or not positive definite on
    some subset, raises InvalidStateError.
    """
    if not a.imag.any():
        a = a.real
    asym = a - a.T.conj()
    defect = np.abs(asym).max()
    if defect > HERMITIAN_TOL:
        raise InvalidStateError(
            f"matrix is not Hermitian (defect {defect:.2e}); "
            "input is not a valid O-submatrix"
        )
    # Cholesky reads one triangle only; at high squeezing the roundoff
    # asymmetry of inv(Sigma), read from one side, moves small
    # determinants by a relative 1e-8, so both triangles are averaged
    m = np.eye(2 * n) - (a - 0.5 * asym)
    dets = np.empty(1 << n)
    dets[0] = 1.0
    for level, ix in _subset_levels(n):
        width = ix.shape[1]
        batch = max(1, BATCH_BYTES // (m.itemsize * width * width))
        for start in range(0, level.size, batch):
            rows = ix[start : start + batch]
            try:
                chol = np.linalg.cholesky(m[rows[:, :, None], rows[:, None, :]])
            except np.linalg.LinAlgError as exc:
                raise InvalidStateError(
                    "a subset determinant is not real positive; "
                    "input is not a valid O-submatrix"
                ) from exc
            diag = np.diagonal(chol, axis1=1, axis2=2).real
            dets[level[start : start + batch]] = np.prod(diag, axis=1) ** 2
    return dets


def torontonian(a):
    """Torontonian of a 2n x 2n matrix by direct inclusion-exclusion.

    The alternating sum cancels severely, so the terms are accumulated
    with compensated summation.  n = 0 returns 1.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {a.shape}")
    n = a.shape[0] // 2
    if n == 0:
        return 1.0
    terms = 1.0 / np.sqrt(_subset_determinants(a, n))
    for k, (level, _) in enumerate(_subset_levels(n), 1):
        if (n - k) % 2:
            terms[level] *= -1.0
    if n % 2:
        terms[0] = -terms[0]
    return math.fsum(terms.tolist())


def _clamped_probability(value, context):
    if value < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"{context} = {value} is negative beyond roundoff")
    return max(value, 0.0)


def pattern_probability(state: GaussianState, pattern):
    """Exact probability of one click pattern.

    The all-zeros pattern costs a single determinant; a pattern with k
    clicks costs 2^k subset determinants.
    """
    pattern = np.asarray(pattern)
    n = state.n_modes
    if pattern.shape != (n,):
        raise ValueError(f"pattern length {pattern.shape} does not match {n} modes")
    clicked = [i for i in range(n) if pattern[i]]
    ix = clicked + [i + n for i in clicked]
    tor = torontonian(state.o_matrix[np.ix_(ix, ix)])
    return _clamped_probability(tor / state.sqrt_det_sigma, "pattern probability")


@dataclass(frozen=True)
class PatternDistribution:
    """Exact probability table over all 2^N click patterns."""

    n_modes: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.n_modes,):
            raise ValueError("probability table has wrong length")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def probability(self, pattern):
        return float(self.probs[pattern_index(pattern)])


def full_distribution(state: GaussianState):
    """Exact distribution over all 2^N patterns.

    All 2^N subset determinants are computed once and the pattern
    probabilities recovered simultaneously with an in-place subset-lattice
    difference transform (equivalent to evaluating the inclusion-exclusion
    sum for every pattern, at O(N 2^N) arithmetic instead of O(3^N)).
    Normalization is checked to 1e-9.

    Accuracy, against a 40-digit mpmath evaluation of the same law at
    N = 6: the absolute error of every probability is at most 5e-15 for
    random theta rescaled to a spectral radius (largest squeezing) of up
    to 4, and at most 1e-11 (2e-12 seen) when every mode is squeezed near
    r = 5.  Relative errors on the smallest probabilities are far larger.

    Memory: besides a few tables of 2^N floats, the kernel holds one batch
    of gathered submatrices, at most BATCH_BYTES (1 MiB), and its Cholesky
    factors at a time, whatever the size of the largest level (C(16, 8)
    subsets at N = 16).
    """
    n = state.n_modes
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"{n} modes exceed the enumeration cap {ENUMERATION_CAP}; "
            "use sample() instead"
        )
    tor = 1.0 / np.sqrt(_subset_determinants(state.o_matrix, n))
    for i in range(n):
        # patterns with bit i set minus their partners without it, in place
        pairs = tor.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    probs = tor / state.sqrt_det_sigma
    if probs.min() < -NEGATIVE_CLAMP:
        raise InvalidStateError(
            f"pattern probability {probs.min()} negative beyond roundoff"
        )
    np.clip(probs, 0.0, None, out=probs)
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"distribution sums to {total}, expected 1")
    return PatternDistribution(n_modes=n, probs=probs)


class _PrefixMarginals:
    """Threshold-pattern marginals on mode prefixes, memoized.

    m(j, clicks) is the probability of observing the click subset
    ``clicks`` on modes 0..j-1 irrespective of the remaining modes: the
    pattern probability of the reduced state on the prefix.
    """

    def __init__(self, state: GaussianState):
        n = state.n_modes
        self._prefix = [reduced_state(state, np.arange(j)) for j in range(1, n + 1)]
        self._memo = {}

    def __call__(self, j, clicks):
        if j == 0:
            return 1.0
        key = (j, clicks)
        value = self._memo.get(key)
        if value is None:
            value = pattern_probability(self._prefix[j - 1], index_to_pattern(clicks, j))
            self._memo[key] = value
        return value


def sample(state: GaussianState, k, seed):
    """Draw k i.i.d. click patterns, exactly, via the mode-by-mode chain rule.

    For each mode j the no-click probability conditioned on the outcomes
    so far is the ratio of two prefix marginals; marginals are memoized
    across samples.  Deterministic for a given seed.  Returns a (k, N)
    0/1 array, one pattern per row.
    """
    if k < 1:
        raise ValueError("sample count must be >= 1")
    if seed is None:
        raise ValueError("an explicit seed is required")
    n = state.n_modes
    marginal = _PrefixMarginals(state)
    rng = np.random.default_rng(seed)
    uniforms = rng.random((k, n))
    out = np.zeros((k, n), dtype=np.int8)
    for s in range(k):
        clicks = 0
        prev = 1.0
        for j in range(1, n + 1):
            m0 = marginal(j, clicks)
            p_no_click = m0 / prev
            if not -1e-9 <= p_no_click <= 1.0 + 1e-9:
                raise InvalidStateError(
                    f"conditional no-click probability {p_no_click} outside [0, 1]"
                )
            p_no_click = min(max(p_no_click, 0.0), 1.0)
            if uniforms[s, j - 1] < p_no_click:
                prev = m0
            else:
                clicks |= 1 << (j - 1)
                out[s, j - 1] = 1
                prev = marginal(j, clicks)
    return out

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


def _subset_determinants(a, n):
    """det(I - A_Z) for every Z subset of [n], indexed by bitmask.

    Validates that each determinant is real positive, which holds for any
    O-submatrix of a valid Gaussian state.
    """
    dets = np.empty(1 << n)
    eye_cache = [np.eye(2 * k) for k in range(n + 1)]
    for mask in range(1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        k = len(idx)
        if k == 0:
            dets[0] = 1.0
            continue
        ix = idx + [i + n for i in idx]
        det = np.linalg.det(eye_cache[k] - a[np.ix_(ix, ix)])
        re, im = det.real, abs(det.imag)
        if re <= 0.0 or im > 1e-8 * max(1.0, abs(re)):
            raise InvalidStateError(
                f"subset determinant {det} is not real positive; "
                "input is not a valid O-submatrix"
            )
        dets[mask] = re
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
    dets = _subset_determinants(a, n)
    terms = []
    for mask in range(1 << n):
        sign = -1.0 if (n - int(mask).bit_count()) % 2 else 1.0
        terms.append(sign / math.sqrt(dets[mask]))
    return math.fsum(terms)


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
    """
    n = state.n_modes
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"{n} modes exceed the enumeration cap {ENUMERATION_CAP}; "
            "use sample() instead"
        )
    inv_sqrt = 1.0 / np.sqrt(_subset_determinants(state.o_matrix, n))
    tor = inv_sqrt  # transformed in place below
    for i in range(n):
        bit = 1 << i
        has = (np.arange(1 << n) & bit).astype(bool)
        tor[has] -= tor[~has]
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

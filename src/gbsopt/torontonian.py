"""Exact threshold-detector statistics for Gaussian states.

Every probability here comes from the vacuum marginals

    f(W) = P(no photon on any mode of W) = 1 / sqrt(det P_W det Q_W),

f(empty set) = 1 (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018),
in the real form of :mod:`gbsopt.gaussian`), by one route,
:func:`_dark_law`: for dark modes D and free modes S, the table of
f(D + Z) over all Z subsets of S, turned in place by a superset Moebius
transform into P(D + Z dark, S - Z clicked, other modes unconstrained).
Its entry Z = empty, the sum over Z of (-1)^|Z| f(D + Z), is a pattern's
probability (D and S its dark and clicked modes) or a prefix marginal of
the sampler (D and S covering a prefix); with D empty and S all modes
the table is the whole distribution.  Every f comes from the one kernel
``gaussian.subset_determinants``, at a cost exponential in |S|.  (The
Torontonian of the 2N x 2N matrix O = I - inv(Sigma) is the same law
without the real form; ``tests/oracles.py`` keeps it as a reference.)

Accuracy: every probability is within 1.3e-15 of a 40-digit evaluation
for random theta up to spectral radius 6, and within 1.2e-14 where one
mode is squeezed to r = 5.5; see :func:`full_distribution`.  Memory: a
pattern probability or prefix marginal with k clicks holds a table of
2^k marginals; :func:`full_distribution` holds tables of 2^N floats and
one kernel batch of at most ``gaussian.BATCH_BYTES``.

Pattern indexing convention: bit i of an integer pattern index is the
outcome of mode i (index = sum_i d_i * 2^i); every 0/1 row is built by
:func:`index_to_pattern`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidStateError
from .gaussian import GaussianState, subset_determinants

__all__ = [
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
    return sum(1 << int(i) for i in np.flatnonzero(pattern))


def index_to_pattern(index, n_modes):
    """The int8 0/1 pattern of ``index``, one row per entry of an array of
    indices (shape ``np.shape(index) + (n_modes,)``); inverts :func:`pattern_index`."""
    bits = np.asarray(index, dtype=np.int64)[..., np.newaxis] >> np.arange(n_modes)
    bits &= 1  # in place, so no second int64 table of the same size is held
    return bits.astype(np.int8)


def all_patterns(n_modes):
    """(2^N, N) matrix of all click patterns in index order."""
    return index_to_pattern(np.arange(1 << n_modes), n_modes)


def _checked_pattern(pattern, n_modes):
    pattern = np.asarray(pattern)
    if pattern.shape != (n_modes,):
        raise ValueError(f"pattern length {pattern.shape} does not match {n_modes} modes")
    bad = pattern[(pattern != 0) & (pattern != 1)]
    if bad.size:
        raise ValueError(f"pattern entries must be 0 or 1, got {sorted(set(bad.tolist()))}")
    return pattern


@functools.lru_cache(maxsize=None)
def _subset_levels(n):
    """Subsets of [n] grouped by size k = 1..n, as (masks, modes) pairs.

    ``masks`` holds the bitmasks of size k in ascending order; row r of
    ``modes`` lists the k modes of masks[r].  uint8 keeps the cache small;
    the arrays are read-only, since every caller shares them.
    """
    masks = np.arange(1 << n)
    bits = index_to_pattern(masks, n)
    sizes = bits.sum(axis=1)
    levels = []
    for k in range(1, n + 1):
        level = masks[sizes == k]
        modes = np.nonzero(bits[level])[1].reshape(level.size, k).astype(np.uint8)
        level.setflags(write=False)
        modes.setflags(write=False)
        levels.append((level, modes))
    return tuple(levels)


def _vacuum_table(state, dark, free):
    """f(dark + Z) for every Z subset of ``free``, indexed by Z's bitmask.

    Bit i of the index selects free[i].  The subsets go to the kernel one
    size at a time, each row being the dark modes followed by Z.
    """
    dark = np.asarray(dark, dtype=np.uint8)
    free = np.asarray(free, dtype=np.uint8)
    table = np.ones(1 << free.size)
    if dark.size:
        table[0] = 1.0 / np.sqrt(subset_determinants(state.blocks, dark[np.newaxis])[0])
    for masks, modes in _subset_levels(free.size):
        rows = free[modes]
        if dark.size:
            rows = np.hstack([np.broadcast_to(dark, (len(rows), dark.size)), rows])
        table[masks] = 1.0 / np.sqrt(subset_determinants(state.blocks, rows))
    return table


def _dark_law(state, dark, free):
    """P(the modes of dark + Z stay dark, those of free - Z click) for every
    Z subset of ``free``, indexed like :func:`_vacuum_table`; the other modes
    are unconstrained.  O(k 2^k) arithmetic on top of the table, k = |free|.
    """
    table = _vacuum_table(state, dark, free)
    for i in range(len(free)):
        # subsets without bit i minus their partners with it, in place
        pairs = table.reshape(-1, 2, 1 << i)
        pairs[:, 0] -= pairs[:, 1]
    return table


def _click_probability(state, pattern):
    """P(the first len(pattern) modes show the 0/1 ``pattern``), other modes unconstrained."""
    value = float(_dark_law(state, np.flatnonzero(pattern == 0), np.flatnonzero(pattern))[0])
    if value < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"click probability {value} is negative beyond roundoff")
    return max(value, 0.0)


def pattern_probability(state: GaussianState, pattern):
    """Exact probability of one click pattern.

    A pattern with k clicks costs 2^k subset determinants, of sizes N - k
    to N; the all-zeros pattern costs one.
    """
    return _click_probability(state, _checked_pattern(pattern, state.n_modes))


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
        return float(self.probs[pattern_index(_checked_pattern(pattern, self.n_modes))])


def full_distribution(state: GaussianState):
    """Exact distribution over all 2^N patterns.

    :func:`_dark_law` with no dark modes and every mode free: the
    probability that exactly the modes of W stay dark, which is the
    pattern whose index is the complement of W, for all 2^N subsets at
    once (O(N 2^N) arithmetic instead of the O(3^N) of one sum per
    pattern).  Normalization is checked to 1e-9.

    Accuracy, against a 40-digit mpmath evaluation of the same law at
    N = 6 (``pattern_probability``, entry 0 of the same transform on its
    own dark and clicked modes, does as well): the absolute error of
    every probability was at most 1.3e-15 for random theta rescaled to a
    spectral radius (largest squeezing) of 1 to 6, 1.1e-16 with every
    mode squeezed near r = 5, and up to 1.2e-14 at the ADAM alpha = 1
    endpoints of the record gate, where one eigenvalue of theta sits near
    +-5.5 and the rest below 1.3.  The tests hold it to 5e-15 up to
    radius 4 and to 1e-14 at r = 5 and radius 5.5.  Relative errors on
    the smallest probabilities are far larger.

    Memory: besides two tables of 2^N floats (the marginals, transformed
    in place, and the returned copy) and the cached subset index (1 MiB
    at N = 16), the kernel holds one batch of gathered submatrices, at
    most BATCH_BYTES (1 MiB), and its Cholesky factors at a time, whatever
    the size of the largest level (C(16, 8) subsets at N = 16).
    """
    n = state.n_modes
    if n > ENUMERATION_CAP:
        raise CapacityError(f"{n} modes exceed the enumeration cap {ENUMERATION_CAP}; "
                            "use sample() instead")
    # the pattern of index x leaves dark the set (2^N - 1) ^ x
    probs = _dark_law(state, [], np.arange(n))[::-1]
    if probs.min() < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"pattern probability {probs.min()} negative beyond roundoff")
    np.clip(probs, 0.0, None, out=probs)
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"distribution sums to {total}, expected 1")
    return PatternDistribution(n_modes=n, probs=probs)


def sample(state: GaussianState, k, seed):
    """Draw k i.i.d. click patterns, exactly, via the mode-by-mode chain rule.

    For each mode j the no-click probability conditioned on the outcomes
    so far is the ratio of two prefix marginals, the one with mode j dark
    over the one without mode j; the marginal with mode j clicked is
    their difference; each marginal is :func:`_dark_law` entry 0 on the
    prefix's dark and clicked modes, memoized across samples.
    Deterministic for a given seed.  Returns a (k, N) 0/1 array, one
    pattern per row.
    """
    if k < 1:
        raise ValueError("sample count must be >= 1")
    if seed is None:
        raise ValueError("an explicit seed is required")
    n = state.n_modes
    marginals = {}  # (j, clicks on modes 0..j-1) -> marginal with mode j - 1 dark
    rng = np.random.default_rng(seed)
    uniforms = rng.random((k, n))
    out = np.zeros((k, n), dtype=np.int8)
    for s in range(k):
        clicks = 0
        prev = 1.0
        for j in range(1, n + 1):
            m0 = marginals.get((j, clicks))
            if m0 is None:
                m0 = marginals[j, clicks] = _click_probability(state, index_to_pattern(clicks, j))
            p_no_click = m0 / prev
            if not -1e-9 <= p_no_click <= 1.0 + 1e-9:
                raise InvalidStateError(
                    f"conditional no-click probability {p_no_click} outside [0, 1]"
                )
            p_no_click = min(max(p_no_click, 0.0), 1.0)
            if uniforms[s, j - 1] < p_no_click:
                prev = m0
            else:
                # inclusion-exclusion on mode j - 1: clicked = unobserved - dark
                clicks |= 1 << (j - 1)
                out[s, j - 1] = 1
                prev = max(prev - m0, 0.0)
    return out

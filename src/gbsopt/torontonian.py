"""Exact threshold-detector statistics for Gaussian states.

Every probability here comes from the vacuum marginals

    f(W) = P(no photon on any mode of W) = 1 / sqrt(det P_W det Q_W),

f(empty set) = 1 (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018),
in the real form of :mod:`gbsopt.gaussian`), by one route,
:func:`_dark_law`: for a stack of patterns of dark modes D and free modes
S, the tables of f(D + Z) over all Z subsets of S, one kernel batch per
size of Z, each turned in place by a superset Moebius transform into
P(D + Z dark, S - Z clicked, other modes unconstrained).  Its entry
Z = empty is a pattern's probability (D and S its dark and clicked modes)
or a prefix marginal of the sampler, which stacks the prefixes of one
click count; with D empty and S all modes the table is the whole
distribution.  Every f comes from ``gaussian.subset_determinants``, at a
cost exponential in |S|.  (``tests/oracles.py`` keeps the Torontonian of
the 2N x 2N matrix O = I - inv(Sigma), the same law without the real
form, as a reference.)

Accuracy: within 1.3e-15 of a 40-digit evaluation up to spectral radius
6 (see :func:`full_distribution`).  Memory: a table with k free modes
holds 2^k floats, and the sampler's stacks at most ``gaussian.BATCH_BYTES``.

Pattern indexing convention: bit i of an integer pattern index is the
outcome of mode i (index = sum_i d_i * 2^i); every 0/1 row is built by
:func:`index_to_pattern`.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidStateError
from .gaussian import BATCH_BYTES, GaussianState, subset_determinants

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
    """f(dark[p] + Z) for each row p of the (P, d) and (P, s) stacks and every
    Z subset of free[p], as a (P, 2^s) table indexed by Z's bitmask (bit i
    selects free[p, i]).  The subsets go to the kernel one size at a time
    for the whole stack, each row the dark modes then Z, so every row is
    bit for bit the one a one-row call gives."""
    dark = np.asarray(dark, dtype=np.uint8)
    free = np.asarray(free, dtype=np.uint8)
    stack, d = dark.shape
    table = np.ones((stack, 1 << free.shape[1]))
    if d:
        table[:, 0] = 1.0 / np.sqrt(subset_determinants(state.blocks, dark))
    for masks, modes in _subset_levels(free.shape[1]):
        rows = np.take(free, modes, axis=1)  # faster than free[:, modes]
        if d:
            rows = np.concatenate(
                [np.broadcast_to(dark[:, np.newaxis], (stack, len(masks), d)), rows], axis=2)
        dets = subset_determinants(state.blocks, rows.reshape(-1, rows.shape[2]))
        table[:, masks] = 1.0 / np.sqrt(dets.reshape(stack, -1))
    return table


def _dark_law(state, dark, free):
    """The (P, 2^s) tables of P(the modes of dark[p] + Z stay dark, those of
    free[p] - Z click, other modes unconstrained), indexed like
    :func:`_vacuum_table`: O(P s 2^s) arithmetic on top of its table."""
    table = _vacuum_table(state, dark, free)
    for i in range(np.shape(free)[1]):
        # subsets without bit i minus their partners with it, in place
        pairs = table.reshape(len(table), -1, 2, 1 << i)
        pairs[:, :, 0] -= pairs[:, :, 1]
    return table


def _clamped(probs, what):
    """``probs`` clipped at zero in place, once none is below -NEGATIVE_CLAMP."""
    if probs.min() < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"{what} {probs.min()} negative beyond roundoff")
    return np.clip(probs, 0.0, None, out=probs)


def pattern_probability(state: GaussianState, pattern):
    """Exact probability of one click pattern.

    A pattern with k clicks costs 2^k subset determinants, of sizes N - k
    to N; the all-zeros pattern costs one.
    """
    pattern = _checked_pattern(pattern, state.n_modes)
    law = _dark_law(state, [np.flatnonzero(pattern == 0)], [np.flatnonzero(pattern)])
    return float(_clamped(law[:, 0], "pattern probability")[0])


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
    N = 6 (``pattern_probability`` does as well): every probability was
    within 1.3e-15 for random theta of spectral radius 1 to 6, 1.1e-16
    with every mode squeezed near r = 5, and 1.2e-14 at the ADAM alpha = 1
    endpoints of the record gate (one eigenvalue of theta near +-5.5, the
    rest below 1.3).  The tests hold it to 5e-15 up to radius 4 and to
    1e-14 at r = 5 and radius 5.5.  Relative errors on the smallest
    probabilities are far larger.

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
    law = _dark_law(state, np.empty((1, 0)), [np.arange(n)])
    probs = _clamped(law[0, ::-1], "pattern probability")  # index x leaves (2^N - 1) ^ x dark
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"distribution sums to {total}, expected 1")
    return PatternDistribution(n_modes=n, probs=probs)


def sample(state: GaussianState, k, seed):
    """Draw k i.i.d. click patterns, exactly, via the mode-by-mode chain rule.

    The no-click probability of mode j given the outcomes so far is the
    ratio of two prefix marginals, the one with mode j dark over the one
    without mode j; the marginal with mode j clicked is their difference.
    All k shots advance one mode at a time.  At mode j the shots' distinct
    prefixes are grouped by click count c, and each group's marginals are
    entry 0 of one stacked :func:`_dark_law` call (split where its table
    would pass BATCH_BYTES): per mode, one kernel batch per click count and
    subset size, 2^c subsets per distinct prefix, so the cost scales with
    the distinct prefixes, not with k x N.  Deterministic for a given seed;
    returns a (k, N) 0/1 array, one pattern per row.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {k!r}")
    if seed is None:
        raise ValueError("an explicit seed is required")
    n = state.n_modes
    uniforms = np.random.default_rng(seed).random((k, n))
    clicks = np.zeros(k, dtype=np.int64)  # bit i: mode i clicked
    prev = np.ones(k)  # each shot's marginal of its outcomes so far
    for j in range(n):
        prefixes, shot_prefix = np.unique(clicks, return_inverse=True)
        bits = index_to_pattern(prefixes, j + 1)  # mode j dark in every row
        counts = bits.sum(axis=1)
        m0 = np.empty(len(prefixes))
        for c in np.unique(counts):
            group = np.flatnonzero(counts == c)
            per_call = max(1, BATCH_BYTES // (8 << c))  # tables of 2^c floats
            for part in np.split(group, range(per_call, len(group), per_call)):
                dark = np.nonzero(bits[part] == 0)[1].reshape(len(part), j + 1 - c)
                free = np.nonzero(bits[part])[1].reshape(len(part), c)
                m0[part] = _dark_law(state, dark, free)[:, 0]
        m0 = _clamped(m0, "click probability")[shot_prefix]
        p_no_click = m0 / prev
        if not np.all((p_no_click >= -1e-9) & (p_no_click <= 1.0 + 1e-9)):  # NaN fails
            raise InvalidStateError(f"conditional no-click probabilities span "
                                    f"[{p_no_click.min()}, {p_no_click.max()}], outside [0, 1]")
        dark_j = uniforms[:, j] < np.clip(p_no_click, 0.0, 1.0)
        clicks[~dark_j] |= 1 << j
        # inclusion-exclusion on mode j: clicked = unobserved - dark
        prev = np.where(dark_j, m0, np.maximum(prev - m0, 0.0))
    return index_to_pattern(clicks, n)

"""Exact threshold-detector statistics for Gaussian states.

Every probability here comes from the vacuum marginals

    f(W) = P(no photon on any mode of W) = 1 / sqrt(det P_W det Q_W),

f(empty set) = 1 (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018),
in the real form of :mod:`gbsopt.gaussian`), and from one
inclusion-exclusion, the superset Moebius transform of
:func:`_superset_transform`: over a table of f(D + Z) for Z the subsets
of S, it gives P(D + Z dark, S - Z clicked, other modes unconstrained).
Its entry Z = empty is the probability of dark modes D and clicked modes
S.  :func:`_dark_law` is the one owner of subset vacuum marginals: it
builds one such table, one size of Z at a time, each determinant the
squared product of the Cholesky diagonals of P_W and Q_W, at a cost
exponential in |S|, for its four callers:

* ``vacuum_marginal``: D the given modes, S empty, so the table is f(D);
* ``pattern_probability``: D and S a pattern's dark and clicked modes;
* ``full_distribution``: D empty, S all modes, the whole distribution;
* ``sample``: at mode j, D = {j} and S the modes below j; entry Z is the
  marginal of every shot whose dark modes below j are Z, with mode j
  dark, and only the supersets of the entries read are computed.

(``tests/oracles.py`` keeps the Torontonian of the 2N x 2N matrix
O = I - inv(Sigma), the same law without the real form, as a reference.)

Accuracy: det P_W det Q_W agree with one LU determinant per subset of the
2N x 2N Sigma to a relative 1e-12 for N <= 12 up to spectral radius 4,
and probabilities stay within 1.3e-15 of a 40-digit evaluation up to
spectral radius 6 (tested; see :func:`full_distribution`).  Memory: a
table with k free modes holds 2^k floats; a kernel batch reuses its
thread's buffers for a gather of at most ``BATCH_BYTES`` and its flat
index (half that), and allocates its Cholesky factors (a batch again);
the subset levels of [k] are cached for the largest k asked for only,
every smaller k reading their leading rows (9 MiB at k = 19, the
sampler's last mode at 20 modes).  For all four callers,
:func:`_dark_law` refuses more than ``BRUTE_FORCE_CAP`` (20) modes.

Pattern indexing convention: bit i of a pattern index is the outcome of
mode i (index = sum_i d_i * 2^i); :func:`index_to_pattern` builds every 0/1
row, and :func:`pattern_index` reads each back, checking its entries.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidStateError
from .gaussian import GaussianState, _is_number

__all__ = [
    "vacuum_marginal",
    "pattern_probability",
    "PatternDistribution",
    "full_distribution",
    "sample",
    "all_patterns",
    "pattern_index",
    "index_to_pattern",
]

#: the one cap on modes: every table of 2^N entries (instances, brute
#: force, the click law and so enumeration, sampling and exact training)
BRUTE_FORCE_CAP = 20

#: negative probabilities within this tolerance are clamped to zero;
#: anything more negative is treated as a corrupted state
NEGATIVE_CLAMP = 1e-12

NORMALIZATION_TOL = 1e-9

#: upper bound on the gathered submatrices of one kernel batch (1 MiB of float64)
BATCH_BYTES = 1 << 20


def pattern_index(patterns):
    """int64 index (bit i = mode i) of one 0/1 row or of each of a (..., N)
    batch: the inverse of :func:`index_to_pattern`, and the one check that
    entries are 0 or 1 (ValueError)."""
    patterns = np.asarray(patterns)
    ones = patterns == 1
    bad = patterns[~ones & (patterns != 0)]
    if bad.size:
        raise ValueError(f"pattern entries must be 0 or 1, got {sorted(set(bad.tolist()))}")
    return ones @ (1 << np.arange(patterns.shape[-1], dtype=np.int64))


def index_to_pattern(index, n_modes):
    """The int8 0/1 pattern of ``index``, one row per entry of an array of
    indices (shape ``np.shape(index) + (n_modes,)``); inverts :func:`pattern_index`."""
    bits = np.asarray(index, dtype=np.int64)[..., np.newaxis] >> np.arange(n_modes)
    bits &= 1  # in place, so no second int64 table of the same size is held
    return bits.astype(np.int8)


def all_patterns(n_modes):
    """(2^N, N) matrix of all click patterns in index order."""
    return index_to_pattern(np.arange(1 << n_modes), n_modes)


def _checked_index(pattern, n_modes):
    if np.shape(pattern) != (n_modes,):
        raise ValueError(f"pattern length {np.shape(pattern)} does not match {n_modes} modes")
    return pattern_index(pattern)


class _SubsetLevels:
    """``_subset_levels(n)``: the subsets of [n] grouped by size k = 0..n,
    as (masks, modes) pairs.

    ``masks`` holds the int64 bitmasks of size k in ascending order; row r
    of ``modes`` lists the k modes of masks[r] in ascending order.  Level k
    of [n] is level k of [n - 1] followed by level k - 1 of [n - 1] with
    mode n - 1 added, so no (2^n, n) table is ever built, and level k of
    [m < n] is the first C(m, k) rows of level k of [n].  So only the levels
    of the largest n asked for are kept (9 MiB at n = 19), and a smaller n
    gets views of their leading rows.  uint8 keeps them small; the arrays
    are read-only, since every caller shares them.  ``cache_clear()`` drops
    them.
    """

    def __init__(self):
        self.cache_clear()

    def cache_clear(self):
        self.levels = ((np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.uint8)),)
        self.views = {}  # n -> views; reset with the levels, whose memory they pin

    def __call__(self, n):
        for m in range(len(self.levels), n + 1):  # the levels of [m] from those of [m - 1]
            below = self.levels
            empty = (np.zeros(0, dtype=np.int64), np.zeros((0, m), dtype=np.uint8))
            grown = [below[0]]
            for (out_masks, out_modes), (in_masks, in_modes) in zip(below[1:] + (empty,), below):
                top = np.full((len(in_masks), 1), m - 1, dtype=np.uint8)
                modes = np.concatenate([out_modes, np.concatenate([in_modes, top], axis=1)])
                grown.append((np.concatenate([out_masks, in_masks | (1 << (m - 1))]), modes))
            for array in (a for level in grown for a in level):
                array.setflags(write=False)
            self.levels, self.views = tuple(grown), {}
        if n not in self.views:
            self.views[n] = tuple((masks[:math.comb(n, k)], modes[:math.comb(n, k)])
                                  for k, (masks, modes) in enumerate(self.levels[:n + 1]))
        return self.views[n]


_subset_levels = _SubsetLevels()


class _BatchBuffers(threading.local):
    """``_batch_buffers(b, k)``: a batch's (b, k) rows, (b, k, k) flat index
    (both intp) and (2, b, k, k) gather, in buffers grown to the largest
    batch yet, so a warm kernel maps no page.  Per thread: a state may be shared."""

    def __init__(self):
        self.buffers = [np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)]

    def __call__(self, b, k):
        shapes = (b, k), (b, k, k), (2, b, k, k)
        for i, shape in enumerate(shapes):
            if self.buffers[i].size < math.prod(shape):
                self.buffers[i] = np.empty(math.prod(shape), dtype=self.buffers[i].dtype)
        return [buf[:math.prod(s)].reshape(s) for buf, s in zip(self.buffers, shapes)]


_batch_buffers = _BatchBuffers()


def _superset_transform(table):
    """In place along the last axis of 2^s entries: entry Z becomes the
    alternating sum over the supersets Z + Y of Z, of (-1)^|Y| table[Z + Y]."""
    for i in range(table.shape[-1].bit_length() - 1):
        # subsets without bit i minus their partners with it
        pairs = table.reshape(table.shape[:-1] + (-1, 2, 1 << i))
        pairs[..., 0, :] -= pairs[..., 1, :]
    return table


def _dark_law(state, dark, free, reads=None):
    """The table of P(the modes of dark + Z stay dark, those of free - Z
    click, other modes unconstrained) for every Z subset of ``free``, as
    2^s floats indexed by Z's bitmask (bit i selects free[i]): the superset
    transform of the table of f(dark + Z).

    The kernel: the subsets go one size k at a time, each row the dark
    modes then Z.  Each batch of at most BATCH_BYTES writes its intp rows,
    their flat index r * N + c (in uint8 it wraps from N = 17 on) and its
    (2, b, k, k) gather of the k x k submatrices of P and Q, one ``np.take``
    of the (2, N^2) flat blocks, into the thread's :class:`_BatchBuffers`.
    The take's mode "clip" (under "raise", numpy gathers into a new batch
    first) checks no index, so every mode is checked against [0, N) once
    per call (ValueError).  One batched Cholesky call factors each batch;
    det P_W det Q_W is the squared product of the 2k diagonal entries, and
    a submatrix not positive definite raises InvalidStateError.

    ``reads`` (bitmasks, private to :func:`sample`) names the only entries
    the caller reads.  Entry Z of the transform reads only the supersets
    of Z, so f is computed for those supersets alone; the other entries
    are left meaningless.  CapacityError above ``BRUTE_FORCE_CAP`` modes.
    """
    n = state.n_modes
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"{n} modes exceed the mode cap {BRUTE_FORCE_CAP}")
    flat = state.blocks.reshape(2, n * n)
    dark = np.asarray(dark, dtype=np.intp)
    free = np.asarray(free, dtype=np.intp)
    if not all(0 <= m < n for m in dark.tolist() + free.tolist()):  # the gather clips
        raise ValueError(f"mode indices must lie in [0, {n})")
    table = np.ones(1 << free.size)
    if reads is not None:  # their upward closure: the entries whose f is needed
        needed = np.zeros(table.size, dtype=bool)
        needed[reads] = True
        for i in range(free.size):
            pairs = needed.reshape(-1, 2, 1 << i)
            pairs[:, 1] |= pairs[:, 0]  # subsets with bit i, from those without it
    for masks, modes in _subset_levels(free.size)[0 if dark.size else 1:]:
        if reads is not None:
            keep = needed[masks]
            masks, modes = masks[keep], modes[keep]
        k = dark.size + modes.shape[1]
        batch = max(1, BATCH_BYTES // (flat.itemsize * 2 * k * k))
        for start in range(0, len(masks), batch):
            r, index, gather = _batch_buffers(len(masks[start : start + batch]), k)
            r[:, :dark.size] = dark
            r[:, dark.size:] = free[modes[start : start + batch]]
            np.multiply(r[:, :, None], n, out=index)
            index += r[:, None, :]
            try:
                chol = np.linalg.cholesky(np.take(flat, index, axis=1, out=gather, mode="clip"))
            except np.linalg.LinAlgError as exc:
                raise InvalidStateError(
                    "a covariance block is not positive definite on some mode subset"
                ) from exc
            diag = np.diagonal(chol, axis1=-2, axis2=-1)
            table[masks[start : start + batch]] = 1.0 / np.sqrt(np.prod(diag, axis=(0, 2)) ** 2)
            del chol, diag  # else these factors sit beside the next batch's gather
    return _superset_transform(table)


def vacuum_marginal(state, modes):
    """P(no photons on every mode in ``modes``) for one state: the one
    entry of ``_dark_law(state, modes, ())``.  CapacityError above
    ``BRUTE_FORCE_CAP`` modes."""
    return float(_dark_law(state, _checked_modes(modes), ())[0])


def _checked_modes(modes):
    modes = list(modes)
    bad = [m for m in modes if not _is_number(m)]
    if bad:
        raise ValueError(f"mode indices must be integers, got {bad[0]!r}")
    modes = np.asarray(sorted(set(int(m) for m in modes)), dtype=int)
    if modes.size == 0:
        raise ValueError("mode subset must be nonempty")
    return modes  # _dark_law checks their range


def _clamped(probs, what):
    """``probs`` clipped at zero in place, once none is below -NEGATIVE_CLAMP."""
    if probs.min() < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"{what} {probs.min()} negative beyond roundoff")
    return np.clip(probs, 0.0, None, out=probs)


def pattern_probability(state: GaussianState, pattern):
    """Exact probability of one click pattern (N entries, each 0 or 1).

    A pattern with k clicks costs 2^k subset determinants, of sizes N - k
    to N; the all-zeros pattern costs one.
    """
    pattern = index_to_pattern(_checked_index(pattern, state.n_modes), state.n_modes)
    law = _dark_law(state, np.flatnonzero(pattern == 0), np.flatnonzero(pattern))
    return float(_clamped(law[:1], "pattern probability")[0])


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
        return float(self.probs[_checked_index(pattern, self.n_modes)])


def full_distribution(state: GaussianState):
    """Exact distribution over all 2^N patterns.

    :func:`_dark_law` with no dark modes and every mode free: the
    probability that exactly the modes of W stay dark, which is the
    pattern whose index is the complement of W, for all 2^N subsets at
    once (O(N 2^N) arithmetic instead of the O(3^N) of one sum per
    pattern).  The table's raw sum, which the Moebius transform makes
    f(empty set) = 1, is checked to 1e-9 before its negative roundoff is
    clipped (clipping alone moves the sum by up to 5e-9 at N = 20).

    Accuracy, against a 40-digit mpmath evaluation of the same law at
    N = 6 (``pattern_probability`` does as well): every probability was
    within 1.3e-15 for random theta of spectral radius 1 to 6, 1.1e-16
    with every mode squeezed near r = 5, and 1.2e-14 at the ADAM alpha = 1
    endpoints of the record gate (one eigenvalue of theta near +-5.5, the
    rest below 1.3).  The tests hold it to 5e-15 up to radius 4 and to
    1e-14 at r = 5 and radius 5.5.  Relative errors on the smallest
    probabilities are far larger.

    Memory: besides two tables of 2^N floats (the marginals, transformed
    in place, and the returned copy) and the cached subset levels of [N]
    (1 MiB at N = 16), the kernel reuses its batch buffers (at most
    BATCH_BYTES, 1 MiB, of gather) and holds one batch of Cholesky factors
    at a time, whatever the size of the largest level (C(16, 8) subsets at
    N = 16): a warm call at N = 16 traces a 1.5 MiB peak.

    Above 16 modes it is slow (one core of a shared Intel Xeon host):
    0.29-0.30 s at N = 17, 0.47-0.60 s at N = 18, 1.3-1.4 s at N = 19 and
    3.0-3.1 s at N = 20, with a 16 MiB traced peak once the subset levels
    are cached, so 50N exact CVaR evaluations at N >= 19 outlast 600 s.
    """
    n = state.n_modes
    law = _dark_law(state, np.empty(0), np.arange(n))
    total = law.sum()  # before clipping, which would add the negative roundoff
    probs = _clamped(law[::-1], "pattern probability")  # index x leaves (2^N - 1) ^ x dark
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails
        raise InvalidStateError(f"distribution sums to {total}, expected 1")
    return PatternDistribution(n_modes=n, probs=probs)


def sample(state: GaussianState, k, seed):
    """Draw k i.i.d. click patterns, exactly, via the mode-by-mode chain rule.

    The no-click probability of mode j given the outcomes so far is the
    ratio of two prefix marginals, the one with mode j dark over the one
    without mode j; the marginal with mode j clicked is their difference.
    All k shots advance one mode at a time.  At mode j the marginals with
    mode j dark are the entries of one table, ``_dark_law(state, [j],
    arange(j))``, read at the bitmask of each shot's dark modes below j.
    Its vacuum marginals f(W + {j}) are computed only for the supersets of
    the entries read, each once, so mode j costs at most 2^j subset
    determinants of size up to j + 1, however many shots ask for them,
    plus O(j 2^j) arithmetic for the closure and the transform.  The
    draws are those of the shot-by-shot
    ``tests/oracles.py:chain_rule_sample`` in every tested case.  Memory:
    that table (4 MiB at N = 20) and the cached subset levels; under
    tracemalloc, 1000 shots peak at 4.0 MB at N = 16 and spectral radius
    2 (levels cached), and at 21 MB at N = 20 near the training start
    (every level built inside the trace).
    Deterministic for a given seed; returns a (k, N) 0/1 array, one
    pattern per row.  Above the one mode cap raises CapacityError.
    """
    if not _is_number(k) or k < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {k!r}")
    if seed is None:
        raise ValueError("an explicit seed is required")
    n = state.n_modes
    uniforms = np.random.default_rng(seed).random((k, n))
    clicks = np.zeros(k, dtype=np.int64)  # bit i: mode i clicked
    prev = np.ones(k)  # each shot's marginal of its outcomes so far
    for j in range(n):
        dark = ~clicks & ((1 << j) - 1)  # each shot's dark modes below j
        law = _dark_law(state, [j], np.arange(j), reads=dark)
        m0 = _clamped(law[dark], "click probability")
        p_no_click = m0 / prev
        if not np.all((p_no_click >= -1e-9) & (p_no_click <= 1.0 + 1e-9)):  # NaN fails
            raise InvalidStateError(f"conditional no-click probabilities span "
                                    f"[{p_no_click.min()}, {p_no_click.max()}], outside [0, 1]")
        dark_j = uniforms[:, j] < np.clip(p_no_click, 0.0, 1.0)
        clicks[~dark_j] |= 1 << j
        # inclusion-exclusion on mode j: clicked = unobserved - dark
        prev = np.where(dark_j, m0, np.maximum(prev - m0, 0.0))
    return index_to_pattern(clicks, n)

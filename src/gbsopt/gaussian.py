"""Pure zero-displacement Gaussian states from a real symmetric parameter matrix.

The state of theta = V diag(lam) V^T is that of squeezed vacua sent
through an interferometer; :func:`takagi_decompose` gives the squeezing
gains r_i = |lam_i| and the interferometer U.  With mode operators ordered
(a_1..a_N, a_1^dag..a_N^dag) and the vacuum's Husimi covariance scaled to
the identity, the covariance is the real matrix

    Sigma = ([[cosh 2theta, sinh 2theta], [sinh 2theta, cosh 2theta]] + I) / 2,

and P(no photon on any mode of W) = 1 / sqrt(det Sigma_W).

Real form.  The mode-wise rotation R = [[I, I], [I, -I]] / sqrt 2 turns
Sigma into diag(P, Q), with

    P = (I + e^{2 theta}) / 2,    Q = (I + e^{-2 theta}) / 2,

both real symmetric positive definite, with eigenvalues above 1/2.  R acts
on each mode's (i, i + N) pair, so it commutes with keeping a subset W of
the modes, and

    P(no photon on any mode of W) = 1 / sqrt(det P_W det Q_W).

A :class:`GaussianState` is these two N x N blocks, built by
:func:`covariance_blocks` from matrix products alone: one Taylor series of
e^{+-2 theta}, kept to degree 19 and scaled and squared row by row, with
no eigendecomposition, no inverse and no complex arithmetic.  The one
``eigh`` left is :func:`takagi_decompose`'s, which no probability goes
through.  Every vacuum marginal of a state over a mode subset comes from
one kernel, ``torontonian._dark_law``, which also turns them into click
probabilities by inclusion-exclusion.  The one- and two-mode marginals
of a stack of states, which the closed-form <Q> needs, have closed
forms (:func:`pair_vacuum_marginals`).

Accuracy: both gains (1 + e^{+-2 lam}) / 2 exceed 1/2, so building P and
Q cancels nothing: against a 40-digit reference their normwise relative
error stays below 1e-14 for N <= 16 up to spectral radius 5.5 (tested);
the envelope of the subset determinants and of the probabilities is
given in :mod:`gbsopt.torontonian`.  Memory: a state is 2 N^2 floats; a
series pass over B rows works in one :class:`TaylorWorkspace` of
10 B N^2 floats: the caller's, as an ADAM run passes its one workspace
to every step, or else a fresh one per :func:`covariance_blocks` call.
"""

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidStateError

__all__ = [
    "ThetaMatrix",
    "TakagiFactors",
    "GaussianState",
    "takagi_decompose",
    "state_from_theta",
    "symmetric_from_upper",
]

#: max-abs tolerance for the unitarity check of Takagi factors
DECOMPOSITION_TOL = 1e-10


def _series_chunks():
    """Taylor coefficients 1/k! of e^A, k = 0..19, for :func:`covariance_blocks`.

    With B = A^2, the even part of the series is sum_j B^j / (2j)! and the
    odd part is A sum_j B^j / (2j + 1)!, j = 0..9.  Chunk i of part p
    (0 even, 1 odd) holds the terms j = 3i .. 3i + 2, and j = 9 as well in
    chunk 2, divided by B^{3i}.  Returns the coefficients of B, B^2 and
    B^3 in each chunk, shape (3, 2, 3), and those of I, shape (3, 2, 1).
    """
    coef = np.zeros((3, 2, 4))
    for i in range(3):
        for p in range(2):
            for j in range(4 if i == 2 else 3):
                coef[i, p, j] = 1.0 / math.factorial(6 * i + 2 * j + p)
    return coef[..., 1:], coef[..., :1]


_SERIES_CHUNKS, _SERIES_CHUNKS_IDENTITY = _series_chunks()


def _frozen_array(a, dtype=None):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _is_number(value, kind=Integral):
    """True for a number of ``kind`` that is not a bool: by default an integer,
    as mode indices, shot counts and the counts, seeds and indices of plans
    and instance files must be; with ``kind=Real``, as an instance file's
    weights and transfer entries."""
    return isinstance(value, kind) and not isinstance(value, bool)


@functools.lru_cache(maxsize=64)
def triangle_indices(n, k=0):
    """``np.triu_indices(n, k)``, built once per (n, k) and read-only.

    The one source of the row-major triangle order: theta's upper
    triangle (k = 0) and the mode pairs i < j (k = 1).  The cache holds
    64 entries, so every n up to the mode cap, 20, fits with both k.
    """
    return tuple(_frozen_array(a) for a in np.triu_indices(n, k))


def symmetric_from_upper(n, upper):
    """The symmetric n x n array of a row-major upper triangle.

    ``upper`` has n(n+1)/2 entries and lists the triangle, diagonal
    included, in ``triangle_indices(n)`` order: the canonical parameter
    order of the trainable matrix.
    """
    upper = np.asarray(upper, dtype=float)
    rows, cols = triangle_indices(n)
    if upper.shape != rows.shape:
        raise ValueError(f"expected {rows.size} upper-triangle entries, got {upper.shape}")
    out = np.zeros((n, n))
    out[rows, cols] = upper
    out[cols, rows] = upper
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
        return self.entries[triangle_indices(self.n_modes)]


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
    """The real form of a pure Gaussian state: ``blocks`` stacks P and Q.

    ``blocks`` has shape (2, N, N); P = blocks[0] and Q = blocks[1] must be
    real, finite and exactly symmetric.  Positive definiteness is not
    checked here: the kernel that factors their principal submatrices
    raises :class:`InvalidStateError` on the first one that is not.
    Instances are immutable and safe to share across threads.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = _frozen_array(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[0] != 2 or blocks.shape[1] != blocks.shape[2]:
            raise InvalidStateError(f"covariance blocks have invalid shape {blocks.shape}")
        if blocks.shape[1] < 1:
            raise InvalidStateError("a state needs at least one mode")
        if not np.all(np.isfinite(blocks)):
            raise InvalidStateError("covariance blocks must be finite")
        if not np.array_equal(blocks, np.swapaxes(blocks, 1, 2)):
            raise InvalidStateError("covariance blocks are not symmetric")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_modes(self):
        return self.blocks.shape[1]

    @property
    def p(self):
        """P = (I + e^{2 theta}) / 2."""
        return self.blocks[0]

    @property
    def q(self):
        """Q = (I + e^{-2 theta}) / 2."""
        return self.blocks[1]

    @property
    def sigma(self):
        """The 2N x 2N Husimi covariance, (1/2) [[P + Q, P - Q], [P - Q, P + Q]]."""
        plus, minus = self.p + self.q, self.p - self.q
        return 0.5 * np.block([[plus, minus], [minus, plus]])


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
    lam, vec = np.linalg.eigh(theta.entries)
    unitary = vec * np.where(lam >= 0, 1.0 + 0.0j, 1.0j)
    r = np.abs(lam)
    order = np.argsort(-r, kind="stable")
    return TakagiFactors(unitary=unitary[:, order], squeezings=r[order])


class TaylorWorkspace:
    """The buffers of one :func:`covariance_blocks` pass over ``rows`` N x N rows.

    Each is its own contiguous array: the scaled rows A (and first
    |theta|), the powers A^2, A^4 and A^6, one (even, odd) chunk and one
    (even, odd) product per row, and the (2, rows, N, N) output blocks.
    They are cut from one allocation, since five separate ones of a
    stack's size would each be mapped and faulted in afresh on every
    fresh pass.  A pass overwrites all of them, so one workspace serves
    any number of passes of its shape, and the blocks of a pass live
    until the next.
    """

    def __init__(self, rows, n):
        parts = np.empty((10, rows * n * n))
        self.a = parts[0].reshape(rows, n, n)
        self.powers = parts[1:4].reshape(rows, 3, n, n)
        self.chunk = parts[4:6].reshape(rows, 2, n, n)
        self.prod = parts[6:8].reshape(rows, 2, n, n)
        self.blocks = parts[8:].reshape(2, rows, n, n)


@np.errstate(over="ignore", invalid="ignore")
def covariance_blocks(thetas, work=None):
    """P and Q of real symmetric matrices on the last two axes, stacked first.

    For thetas of shape (..., N, N) the result has shape (2, ..., N, N):
    P = (I + e^X) / 2 and Q = (I + e^{-X}) / 2 for X = 2 theta, from one
    batched Taylor series run in the buffers of ``work``, a
    :class:`TaylorWorkspace` of the stack's (rows, N), or of a fresh one
    when ``work`` is None.  The result is a view of ``work.blocks``, valid
    until the next call in ``work``; ``thetas`` is only read.  Scaling and
    squaring follows Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31
    (2009) 970-989): each row is scaled by its own s = max(0, ceil(log2
    ||X||_1)), so A = X / 2^s has ||A||_1 <= 1 and the series e^A, kept to
    degree 19, leaves a remainder below e / 20! < 2^-53.  The even and odd
    parts of the series are polynomials in A^2, evaluated together by
    Paterson-Stockmeyer on A^2, A^4 and A^6 (SIAM J. Comput. 2 (1973)
    60-66), and e^{+-A} = even +- odd are squared s times.  Every step acts
    on one row at a time and no step depends on the buffers' layout, so
    each row is bit for bit what a one-row call returns, in a given
    workspace or a fresh one.  Both blocks are averaged with their
    transposes to be exactly symmetric.  Against a 40-digit reference, P
    and Q keep a normwise relative error below 1e-14 up to spectral
    radius 5.5 (tested).  A row whose e^{+-X} overflows raises
    InvalidStateError.
    """
    thetas = np.asarray(thetas, dtype=float)
    shape, n = thetas.shape[:-2], thetas.shape[-1]
    thetas = thetas.reshape((-1, n, n))
    if work is None:
        work = TaylorWorkspace(thetas.shape[0], n)
    a, powers, chunk, prod, blocks = work.a, work.powers, work.chunk, work.prod, work.blocks
    # s from the exact exponent of ||X||_1 = 2 ||theta||_1 = frac 2^e,
    # frac in [1/2, 1): ceil(log2) is e, or e - 1 at a power of two.
    # ThetaMatrix keeps non-finite entries out; any that reach here give
    # s = 0 and non-finite blocks, which raise below
    np.abs(thetas, out=a)
    frac, s = np.frexp(2.0 * (a @ np.ones(n)).max(axis=-1))
    s = np.maximum(s - (frac == 0.5), 0)
    if np.all(s == s[:1]):
        order = None  # every row squares s times: no sort
    else:
        # rows sorted by s, descending, so the rows still squaring are a prefix
        order = np.argsort(-s, kind="stable")
        s = s[order]
        thetas = np.take(thetas, order, axis=0, out=a)
    np.multiply(thetas, np.ldexp(2.0, -s)[:, np.newaxis, np.newaxis], out=a)  # A = 2 theta / 2^s
    np.matmul(a, a, out=powers[:, 0])
    np.matmul(powers[:, 0], powers[:, 0], out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 0], out=powers[:, 2])
    flat_powers, flat_chunk = powers.reshape(-1, 3, n * n), chunk.reshape(-1, 2, n * n)
    # Horner in A^6 over the chunks of both parts, top chunk first
    for i in (2, 1, 0):
        np.matmul(_SERIES_CHUNKS[i], flat_powers, out=flat_chunk)
        flat_chunk[..., :: n + 1] += _SERIES_CHUNKS_IDENTITY[i]
        if i < 2:
            chunk += prod  # the chunks above i, times A^6
        if i > 0:
            np.matmul(chunk, powers[:, 2:], out=prod)
    np.matmul(a, chunk[:, 1], out=prod[:, 0])  # the odd part
    np.subtract(chunk[:, 0], prod[:, 0], out=chunk[:, 1])
    chunk[:, 0] += prod[:, 0]  # e^A, then e^{-A}
    for k in range(s.max(initial=0)):
        rows = np.count_nonzero(s > k)
        np.matmul(chunk[:rows], chunk[:rows], out=prod[:rows])
        chunk[:rows] = prod[:rows]
    if order is None:
        np.add(chunk, np.swapaxes(chunk, -1, -2), out=np.swapaxes(blocks, 0, 1))
    else:
        np.add(chunk, np.swapaxes(chunk, -1, -2), out=prod)
        blocks[:, order] = np.swapaxes(prod, 0, 1)
    blocks *= 0.25
    blocks.reshape(-1, n * n)[:, :: n + 1] += 0.5
    if not np.all(np.isfinite(blocks)):
        raise InvalidStateError("e^{+-2 theta} overflows float64")
    return blocks.reshape((2,) + shape + (n, n))


def state_from_theta(theta):
    """The Gaussian state of a parameter matrix (a ThetaMatrix or an array)."""
    if not isinstance(theta, ThetaMatrix):
        theta = ThetaMatrix(theta)
    return GaussianState(covariance_blocks(theta.entries))


def pair_vacuum_marginals(blocks):
    """Vacuum marginals of every mode and every pair of modes, in closed form.

    ``blocks`` stacks P and Q as (2, ..., N, N), as :func:`covariance_blocks`
    returns them.  Returns the (..., N) one-mode marginals
    1 / sqrt(P_ii Q_ii) and the (..., N(N-1)/2) two-mode marginals of the
    pairs i < j in ``triangle_indices(N, 1)`` order, from the 2 x 2 minors
    P_ii P_jj - P_ij^2 and Q_ii Q_jj - Q_ij^2.  A minor that is not
    positive raises InvalidStateError.
    """
    n = blocks.shape[-1]
    ii, jj = triangle_indices(n, 1)
    diag = np.diagonal(blocks, axis1=-2, axis2=-1)
    minors = diag[..., ii] * diag[..., jj] - blocks[..., ii, jj] ** 2
    if not (np.all(diag > 0) and np.all(minors > 0)):
        raise InvalidStateError("a covariance block has a non-positive 1 x 1 or 2 x 2 minor")
    return 1.0 / np.sqrt(diag[0] * diag[1]), 1.0 / np.sqrt(minors[0] * minors[1])

"""Independent ground-truth oracles used by the test suite.

Nothing here uses the package: the Fock oracle expands the squeezed state
in the photon number basis, the QUBO helpers re-derive energies from the
raw objective, from loops or from one row-wise einsum, and the second
enumerator is a deliberately naive re-implementation.  The covariance
references work on the 2N x 2N Husimi covariance, not on the package's
real N x N blocks: subset determinants one LU determinant at a time, the
Torontonian of O = I - inv(Sigma), and the mpmath reference, which redoes
the whole probability law at 40 digits.
A second mpmath reference gives the real blocks P and Q themselves, and
their one- and two-mode vacuum marginals, at 40 digits.
The one exception is :func:`chain_rule_sample`, a shot-by-shot sampler on
the package's one-row click law, kept so the batched sampler's draws can
be compared with it bit for bit.
"""

import itertools
import math

import numpy as np

FOCK_CUTOFF = 20


def fock_state_amplitudes(unitary, squeezings, cutoff=FOCK_CUTOFF):
    """Photon-number amplitudes of squeezed vacua through an interferometer.

    The state is exp(1/2 sum_ij B_ij a_i^dag a_j^dag)|0> / prod sqrt(cosh r)
    with B = U diag(tanh r) U^T; the exponential series is applied term by
    term in a per-mode-truncated Fock space.  Truncation drops amplitudes
    above the cutoff, so probabilities summed from the result undercount
    by at most the (bounded-squeezing) tail mass.
    """
    n = len(squeezings)
    b = unitary @ np.diag(np.tanh(squeezings)) @ unitary.T
    shape = (cutoff + 1,) * n
    psi = np.zeros(shape, dtype=complex)
    psi[(0,) * n] = 1.0
    term = psi.copy()
    for k in range(1, 400):
        new = np.zeros_like(term)
        for i in range(n):
            for j in range(n):
                src = [slice(None)] * n
                dst = [slice(None)] * n
                if i == j:
                    src[i] = slice(0, cutoff - 1)
                    dst[i] = slice(2, cutoff + 1)
                    counts = np.arange(cutoff - 1)
                    weight = np.sqrt((counts + 1) * (counts + 2))
                    wshape = [1] * n
                    wshape[i] = cutoff - 1
                    new[tuple(dst)] += (
                        0.5 * b[i, j] * weight.reshape(wshape) * term[tuple(src)]
                    )
                else:
                    src[i] = slice(0, cutoff)
                    src[j] = slice(0, cutoff)
                    dst[i] = slice(1, cutoff + 1)
                    dst[j] = slice(1, cutoff + 1)
                    wi = np.sqrt(np.arange(1, cutoff + 1))
                    wj = np.sqrt(np.arange(1, cutoff + 1))
                    si = [1] * n
                    si[i] = cutoff
                    sj = [1] * n
                    sj[j] = cutoff
                    new[tuple(dst)] += (
                        0.5 * b[i, j] * wi.reshape(si) * wj.reshape(sj) * term[tuple(src)]
                    )
        term = new / k
        psi += term
        if np.linalg.norm(term) < 1e-18:
            break
    return psi / np.prod(np.sqrt(np.cosh(squeezings)))


def fock_threshold_probabilities(psi):
    """Map click patterns to probabilities by summing squared amplitudes."""
    n = psi.ndim
    weights = np.abs(psi) ** 2
    table = {}
    for pattern in itertools.product((0, 1), repeat=n):
        slicer = tuple(slice(0, 1) if b == 0 else slice(1, None) for b in pattern)
        table[pattern] = float(weights[slicer].sum())
    return table


def bounded_random_theta(rng, n, spectral_radius=0.5):
    """Random symmetric matrix rescaled so the Fock oracle converges.

    At cutoff 20 the truncated tail stays below ~1e-7 per mode when
    tanh(r) <= 0.5, comfortably inside the 1e-6 comparison tolerance.
    """
    a = rng.uniform(-1.0, 1.0, (n, n))
    theta = (a + a.T) / 2.0
    radius = np.abs(np.linalg.eigvalsh(theta)).max()
    if radius > spectral_radius:
        theta = theta * (spectral_radius / radius)
    return (theta + theta.T) / 2.0


def qubo_energy_by_loops(q, offset, x):
    """Plain-Python x^T q x + offset, summation order unlike numpy's."""
    n = len(x)
    total = offset
    for i in range(n):
        for j in range(n):
            total += q[i][j] * x[i] * x[j]
    return total


def qubo_energies_einsum(q, offset, rows):
    """x^T q x + offset of each 0/1 row of a (M, N) batch, by one row-wise
    einsum: x_i q_ij x_j summed with i the outer and j the inner index, the
    order in which the package's energy table adds its terms, so the two
    agree bit for bit."""
    x = np.asarray(rows, dtype=float)
    return np.einsum("mi,ij,mj->m", x, q, x) + offset


def enumerate_minimizers(q, offset, n):
    """Second brute-force enumerator: itertools + python loops."""
    best = None
    rows = []
    for bits in itertools.product((0, 1), repeat=n):
        x = bits[::-1]  # itertools varies the last element fastest
        value = qubo_energy_by_loops(q, offset, x)
        rows.append((x, value))
        if best is None or value < best:
            best = value
    scale = sum(abs(q[i][j]) for i in range(n) for j in range(n)) + abs(offset)
    tol = 1e-9 * max(1.0, scale)
    minimizers = [x for x, value in rows if value <= best + tol]
    return best, sorted(minimizers, key=lambda x: sum(b << i for i, b in enumerate(x)))


def fga_objective_direct(instance, x):
    """The raw assignment objective, written straight from its definition."""
    x = np.asarray(x)
    total = float(x @ instance.transfer @ x)
    grid = x.reshape(instance.n_flights, instance.n_gates)
    for f in range(instance.n_flights):
        total += instance.lambda_one * float(grid[f].sum() - 1.0) ** 2
    for i, j in instance.forbidden_pairs:
        for g in range(instance.n_gates):
            total += instance.lambda_not * float(grid[i, g] * grid[j, g])
    return total


def naive_subset_determinants(a, n):
    """det(I - A_Z) for every Z subset of [n], one LU determinant per subset.

    Indexed by bitmask; each determinant must come out real positive.
    """
    dets = np.empty(1 << n)
    for mask in range(1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        if not idx:
            dets[0] = 1.0
            continue
        ix = idx + [i + n for i in idx]
        det = np.linalg.det(np.eye(2 * len(idx)) - a[np.ix_(ix, ix)])
        if det.real <= 0.0 or abs(det.imag) > 1e-8 * max(1.0, abs(det.real)):
            raise ValueError(f"subset determinant {det} is not real positive")
        dets[mask] = det.real
    return dets


def enumerated_subset_levels(n):
    """Subsets of [n] grouped by size k = 0..n, as (masks, modes) pairs,
    from one (2^n, n) table of bits: the int64 bitmasks of size k in
    ascending order, and per mask its k modes in ascending order (uint8)."""
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, np.newaxis] >> np.arange(n)) & 1
    sizes = bits.sum(axis=1)
    levels = []
    for k in range(n + 1):
        level = masks[sizes == k]
        modes = np.nonzero(bits[level])[1].reshape(level.size, k).astype(np.uint8)
        levels.append((level, modes))
    return levels


def husimi_sigma(theta):
    """Real 2N x 2N Husimi covariance of the state of a real symmetric theta.

    Sigma = ([[cosh 2theta, sinh 2theta], [sinh 2theta, cosh 2theta]] + I) / 2,
    in the (a, a^dag) mode ordering, with the matrix functions taken
    through the eigendecomposition of theta.
    """
    lam, vec = np.linalg.eigh(np.asarray(theta, dtype=float))
    ch = (vec * np.cosh(2.0 * lam)) @ vec.T
    sh = (vec * np.sinh(2.0 * lam)) @ vec.T
    return 0.5 * np.block([[ch, sh], [sh, ch]]) + 0.5 * np.eye(2 * len(lam))


def o_matrix(sigma):
    """O = I - inv(Sigma), the matrix whose Torontonians give click probabilities."""
    return np.eye(sigma.shape[0]) - np.linalg.inv(sigma)


def torontonian(a):
    """Torontonian of a 2n x 2n matrix by direct inclusion-exclusion.

    Tor(A) = sum over Z subsets of [n] of (-1)^(n-|Z|) / sqrt(det(I - A_Z)),
    with A_Z keeping rows/columns {i, i + n : i in Z}; the pattern that
    clicks on exactly the modes S has probability Tor(O_S) / sqrt(det Sigma).
    Terms are summed with compensated summation; n = 0 returns 1.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {a.shape}")
    n = a.shape[0] // 2
    dets = naive_subset_determinants(a, n)
    return math.fsum(
        (-1) ** (n - bin(mask).count("1")) / math.sqrt(dets[mask]) for mask in range(1 << n)
    )


def mpmath_pattern_probabilities(theta, dps=40):
    """All 2^N click-pattern probabilities of the state of a real theta.

    Follows the probability law from theta itself at ``dps`` digits:
    eigendecomposition, Husimi covariance, O = I - inv(Sigma) and the
    inclusion-exclusion Torontonian of every pattern.  theta is real, so
    the covariance is assembled as the real matrix it is.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = len(theta)
        lam, vec = mpmath.eigsy(mpmath.matrix(np.asarray(theta).tolist()))
        # U diag(cosh 2r) U^dag = V diag(cosh 2|lam|) V^T and
        # U diag(sinh 2r) U^T = V diag(sinh 2 lam) V^T for real theta
        c = vec * mpmath.diag([mpmath.cosh(2 * abs(x)) for x in lam]) * vec.T
        s = vec * mpmath.diag([mpmath.sinh(2 * x) for x in lam]) * vec.T
        sigma = mpmath.eye(2 * n) / 2
        for i in range(n):
            for j in range(n):
                sigma[i, j] += c[i, j] / 2
                sigma[i + n, j + n] += c[i, j] / 2
                sigma[i, j + n] += s[i, j] / 2
                sigma[i + n, j] += s[i, j] / 2
        m = mpmath.inverse(sigma)  # I - O
        sqrt_det_sigma = mpmath.sqrt(mpmath.det(sigma))
        inv_sqrt = [mpmath.mpf(1)]
        for mask in range(1, 1 << n):
            ix = [i for i in range(n) if (mask >> i) & 1]
            ix = ix + [i + n for i in ix]
            sub = mpmath.matrix(len(ix), len(ix))
            for r, i in enumerate(ix):
                for col, j in enumerate(ix):
                    sub[r, col] = m[i, j]
            inv_sqrt.append(1 / mpmath.sqrt(mpmath.det(sub)))
        probs = []
        for pattern in range(1 << n):
            tor = mpmath.fsum(
                (-1) ** bin(pattern ^ z).count("1") * inv_sqrt[z]
                for z in range(1 << n)
                if z & ~pattern == 0
            )
            probs.append(float(tor / sqrt_det_sigma))
    return np.array(probs)


def mpmath_covariance_blocks(theta, dps=40):
    """P, Q and the pair vacuum marginals of a real theta at ``dps`` digits.

    P = V diag((1 + e^{2 lam}) / 2) V^T and Q = V diag((1 + e^{-2 lam}) / 2) V^T
    from mpmath's symmetric eigensolver.  Returns the (2, N, N) blocks, the
    N one-mode marginals 1 / sqrt(P_ii Q_ii) and the two-mode marginals
    1 / sqrt((P_ii P_jj - P_ij^2)(Q_ii Q_jj - Q_ij^2)) of the pairs i < j
    in ``np.triu_indices(N, 1)`` order, each rounded to float64 only at the
    end.
    """
    import mpmath

    n = len(theta)
    with mpmath.workdps(dps):
        lam, vec = mpmath.eigsy(mpmath.matrix(np.asarray(theta).tolist()))
        blocks = [
            vec * mpmath.diag([(1 + mpmath.exp(sign * 2 * x)) / 2 for x in lam]) * vec.T
            for sign in (1, -1)
        ]
        one = [1 / mpmath.sqrt(blocks[0][i, i] * blocks[1][i, i]) for i in range(n)]
        two = [
            1 / mpmath.sqrt(mpmath.fprod(b[i, i] * b[j, j] - b[i, j] ** 2 for b in blocks))
            for i, j in zip(*np.triu_indices(n, 1))
        ]
        floats = np.array([[[float(b[i, j]) for j in range(n)] for i in range(n)] for b in blocks])
        return floats, np.array([float(x) for x in one]), np.array([float(x) for x in two])


def constraints_bind_by_loops(instance):
    """Whether every transfer-optimal one-hot assignment breaks a forbidden pair.

    One assignment at a time, in itertools.product order.
    """
    if not instance.forbidden_pairs:
        return False
    n_gates = instance.n_gates
    records = []
    for gates in itertools.product(range(n_gates), repeat=instance.n_flights):
        x = np.zeros(instance.n_flights * n_gates, dtype=np.int8)
        for f, g in enumerate(gates):
            x[f * n_gates + g] = 1
        t = float(x @ instance.transfer @ x)
        feasible = all(gates[i] != gates[j] for i, j in instance.forbidden_pairs)
        records.append((t, feasible))
    t_min = min(t for t, _ in records)
    tol = 1e-9 * max(1.0, abs(t_min))
    return not any(feasible for t, feasible in records if t <= t_min + tol)


def chain_rule_sample(state, k, seed):
    """k click patterns by the mode-by-mode chain rule, one shot at a time.

    Each prefix marginal is entry 0 of the package's one-row ``_dark_law``
    (clamped at zero, memoized per prefix); shot s decides mode j from
    the uniform [s, j] of ``default_rng(seed).random((k, N))``.
    """
    from gbsopt.errors import InvalidStateError
    from gbsopt.torontonian import NEGATIVE_CLAMP, _dark_law, index_to_pattern

    def click_probability(pattern):
        law = _dark_law(state, np.flatnonzero(pattern == 0), np.flatnonzero(pattern))
        value = float(law[0])
        if value < -NEGATIVE_CLAMP:
            raise InvalidStateError(f"click probability {value} is negative beyond roundoff")
        return max(value, 0.0)

    n = state.n_modes
    marginals = {}  # (j, clicks on modes 0..j-1) -> marginal with mode j - 1 dark
    uniforms = np.random.default_rng(seed).random((k, n))
    out = np.zeros((k, n), dtype=np.int8)
    for s in range(k):
        clicks = 0
        prev = 1.0
        for j in range(1, n + 1):
            m0 = marginals.get((j, clicks))
            if m0 is None:
                m0 = marginals[j, clicks] = click_probability(index_to_pattern(clicks, j))
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

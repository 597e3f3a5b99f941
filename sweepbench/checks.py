"""Reference computations the benchmark checks gbsopt's outputs against.

Everything here is derived from first principles with numpy alone and
imports nothing from gbsopt, so a fault in the program cannot hide in its
own check:

* energies come straight from an instance file's transfer matrix and
  penalty terms, not from the assembled QUBO;
* the Husimi covariance is built from the eigendecomposition of theta in
  real arithmetic, not from the Takagi factors or the O matrix;
* click probabilities are inclusion-exclusion sums of vacuum
  probabilities 1 / sqrt(det Sigma_T), not Torontonians.

Pattern convention, shared with gbsopt: bit i of a pattern index is the
outcome of mode i.
"""

import itertools
import math

import numpy as np

#: relative tie tolerance when collecting minimizers, and the slack used
#: in energy bounds (scaled by the instance's coefficient magnitude)
ENERGY_RTOL = 1e-9


def assignment_bits(n):
    """(2^n, n) 0/1 matrix of all assignments in index order."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.int8)


class Instance:
    """A flight-gate instance as read from its JSON file."""

    def __init__(self, data):
        self.n_flights = int(data["n_flights"])
        self.n_gates = int(data["n_gates"])
        self.transfer = np.array(data["transfer_matrix"], dtype=float)
        self.forbidden_pairs = [tuple(p) for p in data["forbidden_pairs"]]
        self.lambda_one = float(data["lambda_one"])
        self.lambda_not = float(data["lambda_not"])

    @property
    def n(self):
        return self.n_flights * self.n_gates

    @property
    def scale(self):
        """Magnitude of the objective; sets absolute energy tolerances."""
        penalties = self.lambda_one * self.n_flights * self.n_gates**2
        penalties += self.lambda_not * len(self.forbidden_pairs) * self.n_gates
        return float(np.abs(self.transfer).sum()) + penalties

    def energies(self, x):
        """Objective of each 0/1 row of ``x``: transfer time plus penalties.

        one-gate penalty:  lambda_one * sum_f (sum_g x[f,g] - 1)^2
        forbidden penalty: lambda_not * sum_{(f,f')} sum_g x[f,g] x[f',g]
        """
        x = np.asarray(x, dtype=float)
        transfer = np.einsum("mi,ij,mj->m", x, self.transfer, x)
        grid = x.reshape(x.shape[0], self.n_flights, self.n_gates)
        one_gate = ((grid.sum(axis=2) - 1.0) ** 2).sum(axis=1)
        clash = np.zeros(x.shape[0])
        for f, h in self.forbidden_pairs:
            clash += (grid[:, f, :] * grid[:, h, :]).sum(axis=1)
        return transfer + self.lambda_one * one_gate + self.lambda_not * clash

    def ground_truth(self):
        """(minimum energy, minimizer pattern indices) over all 2^N rows."""
        energies = self.energies(assignment_bits(self.n))
        e_min = float(energies.min())
        ties = energies <= e_min + ENERGY_RTOL * self.scale
        return e_min, np.flatnonzero(ties)

    def quadratic_form(self):
        """(c, a, b) with E(x) = c + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j.

        Read off the energy function at the empty, single and pair
        assignments, which determines a quadratic pseudo-Boolean function
        exactly.  ``b`` is upper triangular.
        """
        n = self.n
        pairs = list(itertools.combinations(range(n), 2))
        rows = np.zeros((1 + n + len(pairs), n))
        rows[1 + np.arange(n), np.arange(n)] = 1.0
        for k, (i, j) in enumerate(pairs):
            rows[1 + n + k, [i, j]] = 1.0
        e = self.energies(rows)
        c = e[0]
        a = e[1 : 1 + n] - c
        b = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            b[i, j] = e[1 + n + k] - a[i] - a[j] - c
        return c, a, b


def husimi_sigma(theta):
    """Real 2N x 2N Husimi covariance of the state parameterized by theta.

    With theta = V diag(lam) V^T, the squeezed-vacuum covariance in the
    (a, a^dag) ordering is

        Sigma = [[cosh 2theta, sinh 2theta], [sinh 2theta, cosh 2theta]] / 2 + I / 2,

    where cosh and sinh act as matrix functions of theta; both are real
    symmetric, so Sigma is too.
    """
    theta = np.asarray(theta, dtype=float)
    lam, vec = np.linalg.eigh(theta)
    ch = (vec * np.cosh(2.0 * lam)) @ vec.T
    sh = (vec * np.sinh(2.0 * lam)) @ vec.T
    n = theta.shape[0]
    return 0.5 * np.block([[ch, sh], [sh, ch]]) + 0.5 * np.eye(2 * n)


def vacuum_probability(sigma, modes):
    """P(no photon on any mode in ``modes``) = 1 / sqrt(det Sigma_T)."""
    modes = sorted(modes)
    if not modes:
        return 1.0
    n = sigma.shape[0] // 2
    ix = modes + [m + n for m in modes]
    det = np.linalg.det(sigma[np.ix_(ix, ix)])
    if not det > 0:
        raise ValueError(f"reduced covariance determinant {det} is not positive")
    return 1.0 / math.sqrt(det)


def pattern_mass(sigma, pattern_index):
    """Exact probability of one click pattern, by inclusion-exclusion.

    P(clicks exactly on S) = sum_{Z subset of S} (-1)^|Z| V(S^c + Z),
    where V(T) is the vacuum probability on T.
    """
    n = sigma.shape[0] // 2
    clicked = [i for i in range(n) if (pattern_index >> i) & 1]
    dark = [i for i in range(n) if not (pattern_index >> i) & 1]
    total = 0.0
    for k in range(len(clicked) + 1):
        for z in itertools.combinations(clicked, k):
            total += (-1) ** k * vacuum_probability(sigma, dark + list(z))
    return total


def fidelity(theta, minimizers):
    """Probability mass the state puts on the given minimizer indices."""
    sigma = husimi_sigma(theta)
    return sum(pattern_mass(sigma, int(p)) for p in minimizers)


def click_probabilities(theta):
    """Per-mode click probability 1 - 1 / sqrt(det Sigma_i)."""
    sigma = husimi_sigma(theta)
    n = sigma.shape[0] // 2
    return np.array([1.0 - vacuum_probability(sigma, [i]) for i in range(n)])


def mean_energy(instance, theta):
    """<E> in the state of theta, from one- and two-mode vacuum marginals.

    <x_i> = 1 - V(i) and <x_i x_j> = 1 - V(i) - V(j) + V(ij).
    """
    c, a, b = instance.quadratic_form()
    sigma = husimi_sigma(theta)
    n = instance.n
    v1 = [vacuum_probability(sigma, [i]) for i in range(n)]
    total = c + sum(a[i] * (1.0 - v1[i]) for i in range(n))
    for i, j in itertools.combinations(range(n), 2):
        both = 1.0 - v1[i] - v1[j] + vacuum_probability(sigma, [i, j])
        total += b[i, j] * both
    return float(total)


def success_fractions(records, thresholds):
    """{(n_modes, alpha, t): fraction of instances any of whose restarts
    reached final_fidelity > t}, from run record dicts."""
    best = {}
    for rec in records:
        run = rec["run"]
        key = (run["n_modes"], float(run["alpha"]), run["instance_id"])
        best[key] = max(best.get(key, 0.0), rec["result"]["final_fidelity"])
    out = {}
    for (n, alpha, _), fid in best.items():
        for t in thresholds:
            wins, count = out.get((n, alpha, float(t)), (0, 0))
            out[(n, alpha, float(t))] = (wins + (fid > t), count + 1)
    return {key: wins / count for key, (wins, count) in out.items()}

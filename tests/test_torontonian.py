"""Tests for the threshold-detector probability layer."""

import itertools
import re
import sys
import threading
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbsopt
from gbsopt import (
    CapacityError,
    InvalidStateError,
    ThetaMatrix,
    assemble_qubo,
    expected_energy_analytic,
    expected_energy_exact,
    full_distribution,
    generate_instance,
    pattern_probability,
    sample,
    state_from_theta,
)
from gbsopt.gaussian import GaussianState, takagi_decompose
from gbsopt.torontonian import (
    BATCH_BYTES,
    PatternDistribution,
    _BatchBuffers,
    _dark_law,
    _subset_levels,
    all_patterns,
    index_to_pattern,
    pattern_index,
    vacuum_marginal,
)

from oracles import (
    bounded_random_theta,
    chain_rule_sample,
    enumerated_subset_levels,
    fock_state_amplitudes,
    fock_threshold_probabilities,
    husimi_sigma,
    mpmath_pattern_probabilities,
    naive_subset_determinants,
    o_matrix,
    torontonian,
)


#: patterns with an entry outside {0, 1}, and the message naming it
NOT_ZERO_ONE = [([2, 0], r"0 or 1, got \[2\]"), ([0.5, 0], r"0 or 1, got \[0.5\]"),
                ([-1, 0], r"0 or 1, got \[-1\]")]


def random_state(rng, n, spectral_radius=1.0):
    return state_from_theta(ThetaMatrix(bounded_random_theta(rng, n, spectral_radius)))


def vacuum_table(state, dark, free):
    """The table of f(dark + Z) = 1 / sqrt(det P_W det Q_W), W = dark + Z,
    for every Z subset of ``free``, indexed by Z's bitmask: what
    ``_dark_law`` builds, read before its transform."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbsopt.torontonian, "_superset_transform", lambda table: table)
        return _dark_law(state, dark, free)


def all_subset_determinants(state):
    """det P_W det Q_W for every W subset of the modes, indexed by bitmask."""
    return vacuum_table(state, (), np.arange(state.n_modes)) ** -2.0


def every_mode_near_five(seed):
    """A 6-mode theta whose six squeezings all lie in [4, 5]."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    lam = 5.0 * rng.choice([-1, 1], 6) * rng.uniform(0.8, 1.0, 6)
    theta = (v * lam) @ v.T
    return (theta + theta.T) / 2.0


def test_package_attribute_is_the_module():
    assert isinstance(gbsopt.torontonian, types.ModuleType)
    assert gbsopt.torontonian.sample is gbsopt.sample


class TestTorontonian:
    """The 2n x 2n Torontonian law of tests/oracles.py."""

    def test_zero_matrix_single_mode(self):
        assert torontonian(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_empty_matrix(self):
        assert torontonian(np.zeros((0, 0))) == 1.0

    def test_single_mode_closed_form(self):
        t = np.tanh(1.0)
        a = np.array([[0.0, t], [t, 0.0]])
        assert torontonian(a) == pytest.approx(np.cosh(1.0) - 1.0, rel=1e-12)

    def test_two_mode_against_fock_oracle(self):
        rng = np.random.default_rng(31)
        theta = ThetaMatrix(bounded_random_theta(rng, 2))
        factors = takagi_decompose(theta)
        sigma = husimi_sigma(theta.entries)
        psi = fock_state_amplitudes(factors.unitary, factors.squeezings)
        p_both = fock_threshold_probabilities(psi)[(1, 1)]
        tor = torontonian(o_matrix(sigma))
        assert tor == pytest.approx(p_both * np.sqrt(np.linalg.det(sigma)), abs=1e-8)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            torontonian(np.zeros((3, 3)))

    def test_rejects_invalid_submatrix(self):
        # determinant of I - A goes negative for entries beyond tanh range
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="not real positive"):
            torontonian(a)


class TestSubsetDeterminants:
    # at 13 modes the 1716 subsets of size 7 (1.3 MiB of submatrices) take two batches
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10, 12, 13])
    def test_matches_naive_loop_on_2n_form(self, n):
        # det(I - A_Z) with A = I - Sigma is det Sigma_Z, one LU per subset
        rng = np.random.default_rng(300 + n)
        for radius in (0.5, 1.0, 2.0, 4.0):
            theta = bounded_random_theta(rng, n, radius)
            got = all_subset_determinants(state_from_theta(ThetaMatrix(theta)))
            want = naive_subset_determinants(np.eye(2 * n) - husimi_sigma(theta), n)
            assert np.abs(got / want - 1.0).max() <= 1e-12

    # at 13 modes the 1716 subsets of size 7 (1.3 MiB of submatrices) take two batches
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10, 12, 13])
    def test_real_o_matches_naive_loop(self, n):
        # Jacobi: det(I - O_Z) = det inv(Sigma)_Z = det Sigma_{W} / det Sigma,
        # with W the complement of Z
        rng = np.random.default_rng(100 + n)
        for radius in (0.5, 1.0, 2.0, 4.0):
            theta = bounded_random_theta(rng, n, radius)
            dets = all_subset_determinants(state_from_theta(ThetaMatrix(theta)))
            want = naive_subset_determinants(o_matrix(husimi_sigma(theta)), n)
            assert np.abs(dets[::-1] / dets[-1] - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_vacuum_marginal_reads_the_same_kernel(self, n):
        # one subset at a time (dark modes W, none free) against the batches
        state = random_state(np.random.default_rng(400 + n), n, 2.0)
        dets = all_subset_determinants(state)
        for mask in range(1, 1 << n):
            modes = [i for i in range(n) if mask >> i & 1]
            assert vacuum_marginal(state, modes) ** -2.0 == pytest.approx(dets[mask], rel=1e-14)

    def test_modes_above_16_at_the_mode_cap(self):
        # in uint8 the flat index r * N + c of modes 17-19 wraps at 256
        state = random_state(np.random.default_rng(20), 20, 1.0)

        def oracle(modes):
            return 1.0 / np.sqrt(np.prod([np.linalg.det(b[np.ix_(modes, modes)])
                                          for b in state.blocks]))

        for modes in ([18, 19], [0, 17, 19], list(range(20))):
            assert vacuum_marginal(state, modes) == pytest.approx(oracle(modes), rel=1e-12)
        dark, free = [17, 19], [0, 18]
        table = vacuum_table(state, dark, free)
        for mask in range(1 << len(free)):
            z = [m for i, m in enumerate(free) if mask >> i & 1]
            assert table[mask] == pytest.approx(oracle(dark + z), rel=1e-12)

    def test_rejects_non_hermitian(self):
        p = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(InvalidStateError, match="not symmetric"):
            GaussianState(np.stack([p, np.eye(2)]))

    def test_rejects_hermitian_not_positive_definite(self):
        # every one-mode block is the identity, but the two-mode block of
        # Q has eigenvalues 1 +- 2
        q = np.eye(3)
        q[0, 2] = q[2, 0] = 2.0
        state = GaussianState(np.stack([np.eye(3), q]))
        assert [vacuum_marginal(state, [m]) for m in range(3)] == [1, 1, 1]
        assert [vacuum_marginal(state, w) for w in ([0, 1], [1, 2])] == [1, 1]
        with pytest.raises(InvalidStateError, match="not positive definite"):
            vacuum_marginal(state, [2, 0])
        # in a batch: {0, 2} is one row of the level of two free modes
        with pytest.raises(InvalidStateError, match="not positive definite"):
            _dark_law(state, (), np.arange(3))
        # and with a dark mode ahead of the free ones
        with pytest.raises(InvalidStateError, match="not positive definite"):
            _dark_law(state, [2], [0, 1])

    def test_memory_stays_within_batches_at_16_modes(self):
        state = random_state(np.random.default_rng(16), 16, 1.0)
        full_distribution(state)  # builds the cached subset index
        tracemalloc.start()
        try:
            full_distribution(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unbatched gather of the 12870 subsets of size 8 alone would
        # take 12870 * 16 * 16 * 8 bytes = 26 MB; the tables over 2^16
        # patterns and a few batches account for the rest
        unbatched_level = 12870 * 16 * 16 * 8
        tables = 4 * 8 * (1 << 16)
        assert peak < tables + 4 * BATCH_BYTES
        assert peak < unbatched_level / 3

    def test_warm_kernel_allocates_no_batch_buffers_at_16_modes(self):
        state = random_state(np.random.default_rng(16), 16, 1.0)
        full_distribution(state)  # grows this thread's batch buffers
        tracemalloc.start()
        try:
            full_distribution(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two tables of 2^16 floats and one batch of Cholesky factors
        assert peak < 2 * 2**20

    def test_grown_buffers_give_the_same_tables(self, monkeypatch):
        monkeypatch.setattr(gbsopt.torontonian, "_batch_buffers", _BatchBuffers())
        small = random_state(np.random.default_rng(6), 6, 2.0)
        cases = [((), np.arange(6)), ([1, 4], [0, 2, 3, 5]), ([0, 5], [])]
        before = [_dark_law(small, dark, free) for dark, free in cases]
        grown = gbsopt.torontonian._batch_buffers.buffers[2].size
        full_distribution(random_state(np.random.default_rng(16), 16, 1.0))
        assert gbsopt.torontonian._batch_buffers.buffers[2].size > grown
        for (dark, free), table in zip(cases, before):
            assert np.array_equal(_dark_law(small, dark, free), table)

    def test_modes_outside_the_state_are_refused(self):
        # the gather clips its index, so the kernel checks the modes itself
        state = random_state(np.random.default_rng(6), 6, 1.0)
        for dark, free in ([6], [0]), ([0], [6]), ([], [0, 7]), ([-1], []):
            with pytest.raises(ValueError, match=r"mode indices must lie in \[0, 6\)"):
                _dark_law(state, dark, free)
        with pytest.raises(ValueError, match=r"mode indices must lie in \[0, 6\)"):
            vacuum_marginal(state, [0, 6])

    def test_threads_sharing_states_get_the_serial_tables(self):
        states = [random_state(np.random.default_rng(n), n, 1.0) for n in (9, 11, 12, 13)]
        want = [full_distribution(state).probs for state in states]
        wrong = []

        def work(t):
            for call in range(20):
                i = (t + call) % len(states)
                try:
                    got = full_distribution(states[i]).probs
                except InvalidStateError as exc:
                    wrong.append(exc)
                else:
                    if not np.array_equal(got, want[i]):
                        wrong.append(states[i].n_modes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestMpmathReference:
    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 4.0])
    def test_probabilities_at_40_digits(self, radius):
        rng = np.random.default_rng(int(radius * 10))
        theta = bounded_random_theta(rng, 6, radius)
        state = state_from_theta(ThetaMatrix(theta))
        want = mpmath_pattern_probabilities(theta)
        assert np.abs(full_distribution(state).probs - want).max() <= 5e-15
        direct = [pattern_probability(state, p) for p in all_patterns(6)]
        assert np.abs(direct - want).max() <= 5e-15

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_mode_squeezed_near_five(self, seed):
        # sqrt(det Sigma) ~ 2e10 here
        theta = every_mode_near_five(seed)
        probs = full_distribution(state_from_theta(ThetaMatrix(theta))).probs
        assert np.abs(probs - mpmath_pattern_probabilities(theta)).max() <= 1e-11

    # every mode squeezed near r = 5, and a random theta at radius 5.5 (ADAM
    # alpha = 1 runs end near there): both routes to a probability stay
    # within 1e-14 of the 40-digit law
    HIGH_SQUEEZING = [
        every_mode_near_five(1),
        every_mode_near_five(2),
        bounded_random_theta(np.random.default_rng(55), 6, 5.5),
    ]

    def test_full_distribution_at_high_squeezing(self):
        for theta in self.HIGH_SQUEEZING:
            probs = full_distribution(state_from_theta(ThetaMatrix(theta))).probs
            assert np.abs(probs - mpmath_pattern_probabilities(theta)).max() <= 1e-14

    def test_pattern_probability_at_high_squeezing(self):
        for theta in self.HIGH_SQUEEZING:
            state = state_from_theta(ThetaMatrix(theta))
            probs = [pattern_probability(state, p) for p in all_patterns(6)]
            assert np.abs(probs - mpmath_pattern_probabilities(theta)).max() <= 1e-14


class TestPatternProbability:
    def test_vacuum_all_zeros(self):
        state = state_from_theta(ThetaMatrix(np.zeros((3, 3))))
        assert pattern_probability(state, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_closed_forms(self):
        state = state_from_theta(ThetaMatrix(np.array([[1.0]])))
        assert pattern_probability(state, [0]) == pytest.approx(
            1 / np.cosh(1.0), rel=1e-12
        )
        assert pattern_probability(state, [1]) == pytest.approx(
            1 - 1 / np.cosh(1.0), rel=1e-12
        )

    def test_three_modes_against_fock_oracle(self):
        rng = np.random.default_rng(101)
        theta = ThetaMatrix(bounded_random_theta(rng, 3))
        factors = takagi_decompose(theta)
        state = state_from_theta(theta)
        table = fock_threshold_probabilities(
            fock_state_amplitudes(factors.unitary, factors.squeezings)
        )
        for pattern in itertools.product((0, 1), repeat=3):
            assert pattern_probability(state, pattern) == pytest.approx(
                table[pattern], abs=1e-6
            )

    def test_capacity_error_before_any_table(self):
        state = state_from_theta(ThetaMatrix(np.zeros((21, 21))))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="21 modes exceed the mode cap 20"):
                pattern_probability(state, np.ones(21, dtype=np.int8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the table of 2^21 floats would be 16 MiB

    def test_rejects_length_mismatch(self):
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="length"):
            pattern_probability(state, [0, 1, 0])
        for pattern, named in NOT_ZERO_ONE:
            with pytest.raises(ValueError, match=named):
                pattern_probability(state, pattern)

    def test_prefix_marginals_sum_the_distribution(self):
        # the sampler's marginal of a pattern on modes 0..j-1, every other
        # mode unconstrained, is the enumerated law summed over those modes
        rng = np.random.default_rng(89)
        for n, radius in ((4, 1.0), (5, 2.0), (6, 3.0)):
            state = random_state(rng, n, radius)
            probs = full_distribution(state).probs
            for j in range(1, n + 1):
                summed = probs.reshape(-1, 1 << j).sum(axis=0)
                marginals = [_dark_law(state, np.flatnonzero(p == 0), np.flatnonzero(p))[0]
                             for p in all_patterns(j)]
                assert np.abs(np.array(marginals) - summed).max() <= 1e-14


class TestFullDistribution:
    def test_vacuum_is_point_mass(self):
        state = state_from_theta(ThetaMatrix(np.zeros((3, 3))))
        dist = full_distribution(state)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.abs(dist.probs - expected).max() < 1e-12

    def test_unentangled_modes_factorize(self):
        state = state_from_theta(ThetaMatrix(np.diag([0.8, 0.8])))
        dist = full_distribution(state)
        p_click = 1 - 1 / np.cosh(0.8)
        for pattern in itertools.product((0, 1), repeat=2):
            expected = np.prod([p_click if b else 1 - p_click for b in pattern])
            assert dist.probability(pattern) == pytest.approx(expected, rel=1e-10)

    def test_normalization_across_sizes(self):
        rng = np.random.default_rng(13)
        for n in (1, 3, 5, 8, 12):
            dist = full_distribution(random_state(rng, n))
            assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_matches_per_pattern_route(self):
        rng = np.random.default_rng(47)
        state = random_state(rng, 5)
        dist = full_distribution(state)
        direct = np.array(
            [pattern_probability(state, p) for p in all_patterns(5)]
        )
        assert np.abs(dist.probs - direct).max() < 1e-12

    def test_marginal_consistency(self):
        rng = np.random.default_rng(53)
        state = random_state(rng, 4)
        dist = full_distribution(state)
        patterns = all_patterns(4)
        for mode in range(4):
            dark = dist.probs[patterns[:, mode] == 0].sum()
            assert dark == pytest.approx(vacuum_marginal(state, [mode]), abs=1e-9)

    def test_all_ones_tor_identity(self):
        rng = np.random.default_rng(59)
        state = random_state(rng, 3)
        p_all = full_distribution(state).probability([1, 1, 1])
        tor = torontonian(o_matrix(state.sigma))
        assert tor >= 0.0
        assert tor == pytest.approx(p_all * np.sqrt(np.linalg.det(state.sigma)), rel=1e-9)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(61)
        theta = bounded_random_theta(rng, 4, spectral_radius=1.0)
        perm = rng.permutation(4)
        permuted = theta[np.ix_(perm, perm)]
        dist = full_distribution(state_from_theta(ThetaMatrix(theta)))
        dist_perm = full_distribution(state_from_theta(ThetaMatrix(permuted)))
        # mode i of the permuted state is mode perm[i] of the original, so
        # relabeling its patterns must reproduce the original table
        relabeled = np.empty_like(dist.probs)
        for idx, pattern in enumerate(all_patterns(4)):
            original_pattern = np.empty(4, dtype=np.int8)
            for new_mode in range(4):
                original_pattern[perm[new_mode]] = pattern[new_mode]
            relabeled[pattern_index(original_pattern)] = dist_perm.probs[idx]
        assert np.abs(relabeled - dist.probs).max() < 1e-11

    def test_capacity_errors(self):
        state = state_from_theta(ThetaMatrix(np.zeros((21, 21))))
        with pytest.raises(CapacityError, match="21 modes exceed the mode cap 20"):
            full_distribution(state)

    def test_twenty_modes_weakly_squeezed(self):
        # clipping the table's negative roundoff moves its sum by about 4.5e-9
        # here, so the normalization check must read the raw sum
        state = random_state(np.random.default_rng(1), 20, spectral_radius=0.05)
        dist = full_distribution(state)
        for index in (0, 1, 0b1011, (1 << 20) - 1):
            pattern = index_to_pattern(index, 20)
            assert dist.probs[index] == pytest.approx(pattern_probability(state, pattern),
                                                      rel=0, abs=1e-13)

    @pytest.mark.parametrize("fault", ["top stage dropped", "NaN"])
    def test_normalization_check_fires(self, monkeypatch, fault):
        def faulty(table):
            if fault == "NaN":  # which a sum check of the form `> tol` would let through
                return np.full_like(table, np.nan)
            for i in range(table.shape[-1].bit_length() - 2):  # every stage but the top
                pairs = table.reshape(table.shape[:-1] + (-1, 2, 1 << i))
                pairs[..., 0, :] -= pairs[..., 1, :]
            return table

        monkeypatch.setattr(gbsopt.torontonian, "_superset_transform", faulty)
        state = random_state(np.random.default_rng(3), 12, spectral_radius=0.05)
        with pytest.raises(InvalidStateError, match="sums to"):
            full_distribution(state)

    def test_distribution_validates_length(self):
        with pytest.raises(ValueError, match="length"):
            PatternDistribution(n_modes=2, probs=np.ones(3))

    def test_probability_validates_pattern_length(self):
        dist = full_distribution(state_from_theta(ThetaMatrix(np.diag([0.8, 0.3]))))
        assert dist.probability([1, 0]) == dist.probs[1]
        for pattern in ([1], [1, 0, 0]):
            with pytest.raises(ValueError, match="length"):
                dist.probability(pattern)
        for pattern, named in NOT_ZERO_ONE:
            with pytest.raises(ValueError, match=named):
                dist.probability(pattern)


def oracle_probability(sigma, clicks):
    """P(exactly the modes ``clicks`` click) = Tor(O_S) / sqrt(det Sigma), from
    ``tests/oracles.py`` alone: no code of the kernel."""
    n = sigma.shape[0] // 2
    ix = list(clicks) + [m + n for m in clicks]
    return torontonian(o_matrix(sigma)[np.ix_(ix, ix)]) / np.sqrt(np.linalg.det(sigma))


@pytest.fixture(scope="module", params=[0.5, 2.0, 4.0], ids=lambda r: f"radius {r:g}")
def law_at_cap(request):
    """(theta, state, law) of one seeded 20-mode theta at spectral radius
    ``request.param``, shared by the tests of TestLawAtTheModeCap."""
    rng = np.random.default_rng(2020)
    theta = bounded_random_theta(rng, 20, spectral_radius=1.0)
    theta *= request.param / np.abs(np.linalg.eigvalsh(theta)).max()
    state = state_from_theta(ThetaMatrix(theta))
    return theta, state, full_distribution(state)


class TestLawAtTheModeCap:
    """The law at N = 20 against checks that share no code with its kernel.

    A pattern with k clicks reads f(W) for |W| from 20 - k to 20, so the
    entries cover every level from 9 up; a marginal on 8 modes reads f(W)
    for |W| <= 8, but each of its entries sums the transform over all 20
    bits.  A replacement kernel must pass these tests unmodified.
    """

    def test_entries_against_the_torontonian_oracle(self, law_at_cap):
        theta, _, law = law_at_cap
        sigma = husimi_sigma(theta)
        rng = np.random.default_rng(20)
        counts = [*range(12), *rng.integers(0, 12, 25), 11, 11, 11]
        for k in counts:
            clicks = np.sort(rng.choice(20, size=k, replace=False))
            index = int(sum(1 << int(m) for m in clicks))
            assert law.probs[index] == pytest.approx(oracle_probability(sigma, clicks),
                                                     rel=0, abs=1e-13)

    def test_marginal_against_the_reduced_state(self, law_at_cap):
        # the reduced state of a Gaussian state keeps its block of the
        # covariance (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012))
        theta, _, law = law_at_cap
        modes = np.sort(np.random.default_rng(8).choice(20, size=8, replace=False))
        index = np.arange(law.probs.size)
        sub = sum(((index >> int(m)) & 1) << j for j, m in enumerate(modes))
        marginal = np.bincount(sub, weights=law.probs, minlength=1 << 8)
        sigma = husimi_sigma(theta)
        ix = np.concatenate([modes, modes + 20])
        reduced = sigma[np.ix_(ix, ix)]
        for z in range(1 << 8):
            clicks = [j for j in range(8) if (z >> j) & 1]
            assert marginal[z] == pytest.approx(oracle_probability(reduced, clicks),
                                                rel=0, abs=1e-12)

    def test_mean_energy_against_the_closed_form(self, law_at_cap):
        # the clip of negative roundoff in full_distribution, not the
        # kernel, sets this bound: at radius 0.5 it moves <Q> by 4.8e-11
        # relative here (154 entries, -2.8e-12 of mass), and by 5.5e-10 for
        # another seeded theta, while the unclipped table agrees to 4.4e-15
        _, state, law = law_at_cap
        qubo = assemble_qubo(generate_instance(4, 5, seed=45))
        assert expected_energy_exact(qubo, law) == pytest.approx(
            expected_energy_analytic(qubo, state), rel=1e-9, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    radius=st.floats(2.0, 4.0),
)
def test_permutation_and_marginal_invariance_at_high_squeezing(seed, n, radius):
    rng = np.random.default_rng(seed)
    theta = bounded_random_theta(rng, n, radius)
    perm = rng.permutation(n)
    probs = full_distribution(state_from_theta(ThetaMatrix(theta))).probs
    permuted = full_distribution(
        state_from_theta(ThetaMatrix(theta[np.ix_(perm, perm)]))
    ).probs
    # mode i of the permuted state is mode perm[i] of the original
    relabel = (all_patterns(n).astype(np.int64) << perm).sum(axis=1)
    assert np.abs(probs[relabel] - permuted).max() <= 1e-12
    state = state_from_theta(ThetaMatrix(theta))
    dark = probs[all_patterns(n)[:, 0] == 0].sum()
    assert dark == pytest.approx(vacuum_marginal(state, [0]), abs=1e-12)


class TestSample:
    def test_vacuum_yields_all_zeros(self):
        state = state_from_theta(ThetaMatrix(np.zeros((3, 3))))
        patterns = sample(state, 50, seed=1)
        assert patterns.shape == (50, 3)
        assert not patterns.any()

    def test_single_mode_click_frequency(self):
        state = state_from_theta(ThetaMatrix(np.array([[1.0]])))
        k = 100_000
        p = 1 - 1 / np.cosh(1.0)
        clicks = sample(state, k, seed=7).sum()
        band = 3.0 * np.sqrt(k * p * (1 - p))
        assert abs(clicks - k * p) < band

    def test_total_variation_against_enumeration(self):
        rng = np.random.default_rng(71)
        state = random_state(rng, 4)
        dist = full_distribution(state)
        patterns = sample(state, 100_000, seed=202)
        counts = np.bincount(
            patterns @ (1 << np.arange(4)), minlength=16
        ).astype(float)
        tvd = 0.5 * np.abs(counts / counts.sum() - dist.probs).sum()
        assert tvd < 0.01

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(73)
        state = random_state(rng, 3)
        a = sample(state, 200, seed=99)
        b = sample(state, 200, seed=99)
        c = sample(state, 200, seed=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_requires_seed_and_positive_count(self):
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            sample(state, 0, seed=1)
        with pytest.raises(ValueError):
            sample(state, 5, seed=None)

    @pytest.mark.parametrize("k", [2.0, 2.5, True, False, np.float64(3.0), "4", None])
    def test_rejects_count_that_is_not_an_integer(self, k):
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
            sample(state, k, seed=1)

    def test_accepts_numpy_integer_count(self):
        state = random_state(np.random.default_rng(3), 3)
        assert np.array_equal(sample(state, np.int64(9), seed=4), sample(state, 9, seed=4))

    def test_state_not_positive_definite_on_a_pair_raises(self):
        # as in TestSubsetDeterminants: Q is not positive definite on modes {0, 2}
        q = np.eye(3)
        q[0, 2] = q[2, 0] = 2.0
        state = GaussianState(np.stack([np.eye(3), q]))
        with pytest.raises(InvalidStateError, match="not positive definite"):
            sample(state, 10, seed=1)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("radius", [0.1, 1.0, 3.0])
    def test_draws_match_shot_by_shot_chain_rule(self, n, radius):
        state = random_state(np.random.default_rng(100 * n), n, radius)
        for k in (1, 7, 1000):
            for seed in (k + n, np.random.SeedSequence(k + n)):
                assert np.array_equal(sample(state, k, seed), chain_rule_sample(state, k, seed))

    def test_draws_match_shot_by_shot_chain_rule_at_12_modes(self):
        state = random_state(np.random.default_rng(12), 12, 1.0)
        assert np.array_equal(sample(state, 1000, 5), chain_rule_sample(state, 1000, 5))

    def test_draws_match_shot_by_shot_chain_rule_at_10_modes_radius_2(self):
        # many prefixes of one mode share subsets here
        state = random_state(np.random.default_rng(10), 10, 2.0)
        assert np.array_equal(sample(state, 1000, 6), chain_rule_sample(state, 1000, 6))

    def test_each_subset_goes_to_the_kernel_once_per_mode(self, monkeypatch):
        state = random_state(np.random.default_rng(12), 12, 2.0)
        # the gather copies P's diagonal exactly, and here it names each mode
        mode_of = {p_ii: m for m, p_ii in enumerate(np.diagonal(state.p).tolist())}
        assert len(mode_of) == state.n_modes
        seen = Counter()
        cholesky = np.linalg.cholesky

        def counted(gathered):
            for p_w in gathered[0]:
                row = [mode_of[p_ii] for p_ii in np.diagonal(p_w).tolist()]
                seen[max(row), tuple(row)] += 1  # mode j is the largest of W + {j}
            return cholesky(gathered)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        sample(state, 1000, 7)
        assert len(seen) > 1000
        assert max(seen.values()) == 1

    def test_memory_stays_flat_at_16_modes(self):
        state = random_state(np.random.default_rng(16), 16, 2.0)
        tracemalloc.start()
        try:
            sample(state, 1000, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_memory_at_20_modes_near_start(self):
        # the sampler asks for the subset levels of every mode below 20;
        # cleared first, so the peak includes building all of them
        upper = np.random.default_rng(20).uniform(-0.1, 0.1, 20 * 21 // 2)
        state = state_from_theta(ThetaMatrix.from_upper(20, upper))
        _subset_levels.cache_clear()
        tracemalloc.start()
        try:
            sample(state, 1000, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22e6

    def test_capacity_error_above_20_modes(self):
        state = state_from_theta(ThetaMatrix(np.zeros((21, 21))))
        with pytest.raises(CapacityError, match="21 modes exceed the mode cap 20"):
            sample(state, 10, seed=1)

    def test_heavy_squeezing_still_samples_exactly(self):
        # squeezing parameters beyond 2 stress the conditional ratios
        rng = np.random.default_rng(83)
        state = random_state(rng, 5, spectral_radius=2.5)
        dist = full_distribution(state)
        patterns = sample(state, 20_000, seed=11)
        counts = np.bincount(patterns @ (1 << np.arange(5)), minlength=32).astype(float)
        tvd = 0.5 * np.abs(counts / counts.sum() - dist.probs).sum()
        assert tvd < 0.03


class TestPatternIndexing:
    def test_round_trip(self):
        from gbsopt.torontonian import index_to_pattern

        for n in (1, 3, 6):
            for idx in range(1 << n):
                assert pattern_index(index_to_pattern(idx, n)) == idx

    def test_all_patterns_ordering(self):
        patterns = all_patterns(3)
        assert patterns.shape == (8, 3)
        assert [pattern_index(p) for p in patterns] == list(range(8))


def test_subset_levels_match_enumeration():
    for n in range(13):
        levels = _subset_levels(n)
        want = enumerated_subset_levels(n)
        assert len(levels) == len(want) == n + 1
        for (masks, modes), (want_masks, want_modes) in zip(levels, want):
            assert masks.dtype == np.int64 and modes.dtype == np.uint8
            assert np.array_equal(masks, want_masks)
            assert np.array_equal(modes, want_modes) and modes.shape == want_modes.shape
            assert not masks.flags.writeable and not modes.flags.writeable
    # once larger levels are kept, a smaller n reads their leading rows
    for n in range(12, -1, -1):
        for (masks, modes), (want_masks, want_modes) in zip(
            _subset_levels(n), enumerated_subset_levels(n)
        ):
            assert np.array_equal(masks, want_masks) and np.array_equal(modes, want_modes)

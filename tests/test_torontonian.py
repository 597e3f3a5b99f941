"""Tests for the threshold-detector probability layer."""

import itertools
import types

import numpy as np
import pytest

import gbsopt
from gbsopt import (
    CapacityError,
    InvalidStateError,
    ThetaMatrix,
    full_distribution,
    pattern_probability,
    sample,
    state_from_theta,
)
from gbsopt.gaussian import takagi_decompose, vacuum_marginal
from gbsopt.torontonian import PatternDistribution, all_patterns, pattern_index, torontonian

from oracles import (
    bounded_random_theta,
    fock_state_amplitudes,
    fock_threshold_probabilities,
)


def random_state(rng, n, spectral_radius=1.0):
    return state_from_theta(ThetaMatrix(bounded_random_theta(rng, n, spectral_radius)))


def test_package_attribute_is_the_module():
    assert isinstance(gbsopt.torontonian, types.ModuleType)
    assert gbsopt.torontonian.sample is gbsopt.sample


class TestTorontonian:
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
        state = state_from_theta(theta)
        psi = fock_state_amplitudes(factors.unitary, factors.squeezings)
        p_both = fock_threshold_probabilities(psi)[(1, 1)]
        tor = torontonian(state.o_matrix)
        assert tor == pytest.approx(p_both * state.sqrt_det_sigma, abs=1e-8)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            torontonian(np.zeros((3, 3)))

    def test_rejects_invalid_submatrix(self):
        # determinant of I - A goes negative for entries beyond tanh range
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(InvalidStateError, match="not real positive"):
            torontonian(a)


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

    def test_rejects_length_mismatch(self):
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="length"):
            pattern_probability(state, [0, 1, 0])


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
        tor = torontonian(state.o_matrix)
        assert tor >= 0.0
        assert tor == pytest.approx(p_all * state.sqrt_det_sigma, rel=1e-9)

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
        state = state_from_theta(ThetaMatrix(np.zeros((17, 17))))
        with pytest.raises(CapacityError, match="sample"):
            full_distribution(state)

    def test_distribution_validates_length(self):
        with pytest.raises(ValueError, match="length"):
            PatternDistribution(n_modes=2, probs=np.ones(3))


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

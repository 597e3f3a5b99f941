"""Tests for the state-construction layer."""

import ast
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import expm

from gbsopt import (
    CapacityError,
    GaussianState,
    InvalidStateError,
    QuboProblem,
    TakagiFactors,
    ThetaMatrix,
    expected_energy_analytic,
    full_distribution,
    sample,
    state_from_theta,
    takagi_decompose,
    vacuum_marginal,
)
from gbsopt import gaussian
from gbsopt.gaussian import (
    TaylorWorkspace,
    covariance_blocks,
    pair_vacuum_marginals,
    triangle_indices,
)
from gbsopt.optim import _energies_from_blocks
from gbsopt.torontonian import all_patterns, pattern_probability

from oracles import bounded_random_theta, husimi_sigma, mpmath_covariance_blocks


class TestThetaMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ThetaMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ThetaMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ThetaMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_upper_round_trip(self):
        rng = np.random.default_rng(5)
        theta = ThetaMatrix(bounded_random_theta(rng, 4))
        again = ThetaMatrix.from_upper(4, theta.upper())
        assert np.array_equal(theta.entries, again.entries)

    def test_entries_are_immutable(self):
        theta = ThetaMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            theta.entries[0, 0] = 1.0


class TestTriangleIndices:
    @pytest.mark.parametrize("k", [0, 1])
    def test_equals_triu_indices_and_is_read_only(self, k):
        for n in range(1, 21):
            rows, cols = triangle_indices(n, k)
            expected_rows, expected_cols = np.triu_indices(n, k)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(cols, expected_cols)
            assert not (rows.flags.writeable or cols.flags.writeable)
            assert triangle_indices(n, k) is triangle_indices(n, k)

    def test_no_other_triu_indices_call_in_the_package(self):
        # every triangle of the package comes from the one cached helper
        calls = []
        for path in sorted(Path(gaussian.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            helper = [node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "triangle_indices"]
            inside = {id(node) for h in helper for node in ast.walk(h)}
            calls += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and "triu_indices" in (getattr(node.func, "attr", None),
                                       getattr(node.func, "id", None))
                and id(node) not in inside
            ]
        assert calls == []


class TestTakagi:
    def test_zero_matrix(self):
        factors = takagi_decompose(ThetaMatrix(np.zeros((2, 2))))
        assert np.allclose(factors.squeezings, 0.0)
        assert np.allclose(factors.unitary, np.eye(2))

    def test_diagonal_with_negative_entry(self):
        theta = ThetaMatrix(np.diag([0.5, -0.3]))
        factors = takagi_decompose(theta)
        assert np.allclose(factors.squeezings, [0.5, 0.3])
        recon = factors.unitary @ np.diag(factors.squeezings) @ factors.unitary.T
        assert np.abs(recon - theta.entries).max() < 1e-10

    def test_random_4x4_postconditions(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, (4, 4))
        theta = ThetaMatrix((a + a.T) / 2.0)
        factors = takagi_decompose(theta)
        u, r = factors.unitary, factors.squeezings
        assert np.all(r >= 0.0)
        assert np.all(np.diff(r) <= 1e-15)  # descending
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
        assert np.abs(u @ np.diag(r) @ u.T - theta.entries).max() < 1e-10

    def test_round_trip_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-2.0, 2.0, (n, n))
            theta = ThetaMatrix((a + a.T) / 2.0)
            factors = takagi_decompose(theta)
            u, r = factors.unitary, factors.squeezings
            assert np.abs(u @ np.diag(r) @ u.T - theta.entries).max() < 1e-10
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10

    def test_factors_validate_unitarity(self):
        with pytest.raises(ValueError, match="unitary"):
            TakagiFactors(unitary=np.ones((2, 2)), squeezings=np.zeros(2))


class TestBuildState:
    """The real form P = (I + e^{2 theta}) / 2, Q = (I + e^{-2 theta}) / 2 of state_from_theta."""

    def test_vacuum(self):
        state = state_from_theta(ThetaMatrix(np.zeros((3, 3))))
        assert np.abs(state.p - np.eye(3)).max() < 1e-12
        assert np.abs(state.q - np.eye(3)).max() < 1e-12
        assert np.abs(state.sigma - np.eye(6)).max() < 1e-12

    def test_single_mode_closed_form(self):
        r = 1.0
        state = state_from_theta(ThetaMatrix(np.array([[r]])))
        assert state.p[0, 0] == pytest.approx((1 + np.exp(2 * r)) / 2, rel=1e-12)
        assert state.q[0, 0] == pytest.approx((1 + np.exp(-2 * r)) / 2, rel=1e-12)
        c, s = np.cosh(r), np.sinh(r)
        assert np.abs(state.sigma - np.array([[c * c, s * c], [s * c, c * c]])).max() < 1e-12

    def test_pure_state_block_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            theta = bounded_random_theta(rng, n, spectral_radius=1.5)
            state = state_from_theta(ThetaMatrix(theta))
            assert np.abs(state.p - (np.eye(n) + expm(2 * theta)) / 2).max() < 1e-10
            assert np.abs(state.q - (np.eye(n) + expm(-2 * theta)) / 2).max() < 1e-10
            # a pure state: (2P - I)(2Q - I) = e^{2 theta} e^{-2 theta} = I
            purity = (2 * state.p - np.eye(n)) @ (2 * state.q - np.eye(n))
            assert np.abs(purity - np.eye(n)).max() < 1e-10
            assert np.abs(state.sigma - husimi_sigma(theta)).max() < 1e-10

    def test_det_sigma_is_product_of_cosh_squared(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            theta = ThetaMatrix(bounded_random_theta(rng, n, spectral_radius=2.0))
            factors = takagi_decompose(theta)
            state = state_from_theta(theta)
            expected = float(np.prod(np.cosh(factors.squeezings)) ** 2)
            det_pq = np.linalg.det(state.p) * np.linalg.det(state.q)
            assert det_pq == pytest.approx(expected, rel=1e-9)
            assert np.linalg.det(state.sigma) == pytest.approx(expected, rel=1e-9)

    def test_husimi_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            theta = ThetaMatrix(bounded_random_theta(rng, 5, spectral_radius=2.0))
            state = state_from_theta(theta)
            for block in (state.p, state.q, state.sigma):
                assert np.array_equal(block, block.T)
                assert np.linalg.eigvalsh(block).min() > 0.5 - 1e-10

    def test_rejects_malformed_blocks(self):
        with pytest.raises(InvalidStateError, match="shape"):
            GaussianState(np.eye(2))
        with pytest.raises(InvalidStateError, match="finite"):
            GaussianState(np.array([[[np.nan]], [[1.0]]]))


def theta_at_radius(rng, n, radius):
    """A random symmetric theta whose largest |eigenvalue| is ``radius``."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    theta = (a + a.T) / 2.0
    theta = theta * (radius / np.abs(np.linalg.eigvalsh(theta)).max())
    return (theta + theta.T) / 2.0


class TestCovarianceBlocks:
    """The scaled-and-squared Taylor series against a 40-digit reference."""

    @pytest.mark.parametrize("radius", [0.2, 2.0, 5.5])
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_matches_40_digit_reference(self, n, radius):
        rng = np.random.default_rng(1000 * n + int(10 * radius))
        stack = np.stack([theta_at_radius(rng, n, radius) for _ in range(3)])
        stacked = covariance_blocks(stack)
        one, two = pair_vacuum_marginals(stacked)
        for row, theta in enumerate(stack):
            single = covariance_blocks(theta)
            assert np.array_equal(single, stacked[:, row])
            want, want_one, want_two = mpmath_covariance_blocks(theta)
            for got, ref in zip(single, want):
                assert np.linalg.norm(got - ref, 2) <= 1e-14 * np.linalg.norm(ref, 2)
            # the eigh route this replaced reached 2.6e-15 on these cases
            assert np.abs(one[row] - want_one).max() <= 3e-15
            if n > 1:
                assert np.abs(two[row] - want_two).max() <= 3e-15

    def test_zero_theta_gives_identity_exactly(self):
        for n in (1, 2, 8, 16):
            blocks = covariance_blocks(np.zeros((2, n, n)))
            assert np.array_equal(blocks, np.broadcast_to(np.eye(n), (2, 2, n, n)))

    def test_rows_match_one_row_calls_bit_for_bit(self):
        # rows far apart in norm scale and square a different number of times
        rng = np.random.default_rng(5)
        stack = np.stack([theta_at_radius(rng, 6, r) for r in (0.01, 5.5, 0.3, 2.0, 0.3, 40.0)])
        stacked = covariance_blocks(stack.reshape(2, 3, 6, 6))
        assert stacked.shape == (2, 2, 3, 6, 6)
        for row, theta in enumerate(stack):
            assert np.array_equal(covariance_blocks(theta), stacked[:, row // 3, row % 3])
            assert np.array_equal(state_from_theta(theta).blocks, stacked[:, row // 3, row % 3])

    @pytest.mark.parametrize("n", [6, 16])
    def test_one_workspace_serves_every_pass(self, n):
        # a pass whose rows all square s times skips the sort; a mixed one
        # sorts by s and scatters back; both reuse the same buffers
        rng = np.random.default_rng(n)
        base = theta_at_radius(rng, n, 0.3)
        uniform = np.stack([base * (1.0 + 1e-3 * k) for k in range(5)])
        mixed = np.stack([theta_at_radius(rng, n, r) for r in (0.01, 5.5, 0.3, 2.0, 40.0)])

        def squarings(stack):
            return np.ceil(np.log2(2.0 * np.abs(stack).sum(axis=-1).max(axis=-1)))

        assert np.unique(squarings(uniform)).size == 1
        assert np.unique(squarings(mixed)).size == 5
        work = TaylorWorkspace(5, n)
        kept = []
        for stack in (uniform, mixed, uniform, mixed):
            given = stack.copy()
            blocks = covariance_blocks(stack, work)
            assert blocks.shape == work.blocks.shape and np.shares_memory(blocks, work.blocks)
            assert np.array_equal(stack, given)  # the thetas are only read
            for row, theta in enumerate(stack):
                assert np.array_equal(blocks[:, row], covariance_blocks(theta))
            state = GaussianState(blocks[:, 0])
            kept.append((state, state.blocks.copy()))
        for state, blocks in kept:
            assert np.array_equal(state.blocks, blocks)

    def test_one_mode_closed_form(self):
        for t in (-5.5, -0.7, 0.0, 0.3, 2.0, 5.5):
            p, q = covariance_blocks(np.array([[t]]))[:, 0, 0]
            # four squarings at |t| = 5.5 double the roundoff four times
            assert p == pytest.approx((1 + np.exp(2 * t)) / 2, rel=1e-14)
            assert q == pytest.approx((1 + np.exp(-2 * t)) / 2, rel=1e-14)

    @pytest.mark.parametrize("theta", [
        theta_at_radius(np.random.default_rng(400), 4, 400.0),
        np.diag([400.0, 0.0, 0.0]),  # one mode overflows; the others stay finite
    ])
    def test_overflow_raises(self, theta):
        n = len(theta)
        with pytest.raises(InvalidStateError, match="overflows"):
            state_from_theta(ThetaMatrix(theta))
        with pytest.raises(InvalidStateError, match="overflows"):
            expected_energy_analytic(QuboProblem(q=np.eye(n)), state_from_theta(theta))
        # one overflowing row in a stack raises rather than giving a NaN cost
        stack = np.stack([np.zeros((n, n)), theta, 0.1 * np.eye(n)])
        with pytest.raises(InvalidStateError, match="overflows"):
            _energies_from_blocks(covariance_blocks(stack), QuboProblem(q=np.eye(n)))


class TestVacuumMarginal:
    def test_vacuum_state_gives_one(self):
        state = state_from_theta(ThetaMatrix(np.zeros((4, 4))))
        for modes in [(0,), (1, 2), (0, 1, 2, 3)]:
            assert vacuum_marginal(state, modes) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_closed_form(self):
        state = state_from_theta(ThetaMatrix(np.array([[1.0]])))
        assert vacuum_marginal(state, [0]) == pytest.approx(1 / np.cosh(1.0), rel=1e-12)

    def test_matches_pattern_sum(self):
        rng = np.random.default_rng(7)
        theta = ThetaMatrix(bounded_random_theta(rng, 3, spectral_radius=1.0))
        state = state_from_theta(theta)
        # sum exact pattern probabilities over outcomes with modes 0,1 dark
        total = sum(
            pattern_probability(state, p)
            for p in all_patterns(3)
            if p[0] == 0 and p[1] == 0
        )
        assert vacuum_marginal(state, [0, 1]) == pytest.approx(total, abs=1e-9)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(29)
        theta = ThetaMatrix(bounded_random_theta(rng, 5, spectral_radius=1.5))
        state = state_from_theta(theta)
        subsets = [(0,), (0, 2), (0, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4)]
        values = [vacuum_marginal(state, s) for s in subsets]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_shares_the_mode_cap(self):
        assert vacuum_marginal(state_from_theta(ThetaMatrix(np.zeros((20, 20)))), [19]) == 1.0
        state = state_from_theta(ThetaMatrix(np.zeros((21, 21))))
        with pytest.raises(CapacityError, match="21 modes exceed the mode cap 20"):
            vacuum_marginal(state, [0])

    def test_rejects_bad_subsets(self):
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            vacuum_marginal(state, [])
        with pytest.raises(ValueError):
            vacuum_marginal(state, [5])
        for modes, named in (([0.7], "0.7"), ([1.9], "1.9"), ([True], "True")):
            with pytest.raises(ValueError, match=f"must be integers, got {named}"):
                vacuum_marginal(state, modes)

    def test_corrupted_state_raises(self):
        # P is symmetric with unit diagonal but eigenvalues 1 +- 2: every
        # route that reaches the two-mode minor must flag it
        p = np.array([[1.0, 2.0], [2.0, 1.0]])
        bad = GaussianState(np.stack([p, np.eye(2)]))
        with pytest.raises(InvalidStateError, match="positive definite"):
            vacuum_marginal(bad, [0, 1])
        with pytest.raises(InvalidStateError, match="positive definite"):
            pattern_probability(bad, [1, 0])
        with pytest.raises(InvalidStateError, match="positive definite"):
            full_distribution(bad)
        with pytest.raises(InvalidStateError, match="positive definite"):
            sample(bad, 10, seed=1)
        # the closed-form <Q> reads the same two-mode minor
        with pytest.raises(InvalidStateError, match="minor"):
            expected_energy_analytic(QuboProblem(q=np.eye(2), offset=0.0), bad)

"""Tests for cost functions, masking and the training drivers."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gbsopt import (
    CapacityError,
    QuboProblem,
    ThetaMatrix,
    TrainConfig,
    assemble_qubo,
    build_mask,
    cvar_exact,
    cvar_from_samples,
    expected_energy_analytic,
    expected_energy_exact,
    full_distribution,
    generate_instance,
    state_from_theta,
    train,
)
from gbsopt import optim
from gbsopt.gaussian import covariance_blocks
from gbsopt.optim import (
    FD_STEP,
    INIT_SCALE,
    MASK_PER_MODE,
    ParameterMask,
    _energies_from_blocks,
)
from gbsopt.torontonian import PatternDistribution

from oracles import bounded_random_theta


def random_qubo(rng, n, scale=2.0):
    a = rng.uniform(-scale, scale, (n, n))
    return QuboProblem(q=(a + a.T) / 2.0, offset=float(rng.uniform(-1.0, 1.0)))


class TestBuildMask:
    def test_diagonal_qubo_prefers_zero_couplings(self):
        qubo = QuboProblem(q=np.diag([1.0, 2.0, 3.0]))
        mask = build_mask(qubo, 2)
        assert mask.indices == ((0, 1), (0, 2))

    def test_three_n_selection_is_deterministic(self):
        rng = np.random.default_rng(4)
        qubo = random_qubo(rng, 6)
        mask_a = build_mask(qubo, 18)
        mask_b = build_mask(qubo, 18)
        assert len(mask_a) == 18
        assert mask_a.indices == mask_b.indices

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(15)
        # the rounded QUBO has many tied coefficients, broken by (i, j)
        for qubo in (random_qubo(rng, 5), QuboProblem(q=np.round(random_qubo(rng, 6).q))):
            n = qubo.n
            mask = build_mask(qubo, 7)
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            expected = sorted(pairs, key=lambda ij: (qubo.q[ij], ij))[:7]
            assert list(mask.indices) == expected

    def test_mask_validation(self):
        with pytest.raises(ValueError, match="i <= j"):
            ParameterMask(indices=((1, 0),))
        with pytest.raises(ValueError, match="duplicate"):
            ParameterMask(indices=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="exceeds"):
            build_mask(QuboProblem(q=np.zeros((2, 2))), 4)


class TestCvarFromSamples:
    def test_alpha_one_is_plain_mean(self):
        assert cvar_from_samples([3.0, 1.0, 2.0], 1.0) == pytest.approx(2.0)

    def test_fractional_count_rounds_up(self):
        assert cvar_from_samples([3.0, 1.0, 2.0], 0.34) == pytest.approx(1.5)

    def test_constant_samples(self):
        for alpha in (0.01, 0.5, 1.0):
            assert cvar_from_samples([5.0, 5.0, 5.0, 5.0], alpha) == pytest.approx(5.0)

    def test_mean_property_on_random_data(self):
        rng = np.random.default_rng(21)
        energies = rng.normal(size=257)
        assert cvar_from_samples(energies, 1.0) == pytest.approx(float(energies.mean()))

    def test_rejects_empty_and_bad_alpha(self):
        with pytest.raises(ValueError):
            cvar_from_samples([], 0.5)
        with pytest.raises(ValueError):
            cvar_from_samples([1.0], 0.0)


class TestCvarExact:
    def test_point_mass(self):
        qubo = QuboProblem(q=np.array([[2.0, 0.0], [0.0, -1.0]]), offset=0.5)
        probs = np.zeros(4)
        probs[1] = 1.0  # pattern (1, 0)
        dist = PatternDistribution(n_modes=2, probs=probs)
        for alpha in (0.05, 0.4, 1.0):
            assert cvar_exact(qubo, dist, alpha) == pytest.approx(qubo.value([1, 0]))

    def test_two_outcome_boundary_rules(self):
        # energies 0 and 10 with a fair coin
        qubo = QuboProblem(q=np.array([[10.0]]), offset=0.0)
        dist = PatternDistribution(n_modes=1, probs=np.array([0.5, 0.5]))
        assert cvar_exact(qubo, dist, 0.5) == pytest.approx(0.0)
        assert cvar_exact(qubo, dist, 0.75) == pytest.approx(10.0 / 3.0)
        assert cvar_exact(qubo, dist, 1.0) == pytest.approx(5.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(33)
        qubo = random_qubo(rng, 4)
        state = state_from_theta(ThetaMatrix(bounded_random_theta(rng, 4)))
        dist = full_distribution(state)
        alphas = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
        values = [cvar_exact(qubo, dist, a) for a in alphas]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        assert values[-1] == pytest.approx(expected_energy_exact(qubo, dist), rel=1e-12)

    def test_small_alpha_ignores_zero_probability_patterns(self):
        # minimum-energy pattern (1,) carries zero probability: the tail
        # must converge to the best energy that is actually attainable
        qubo = QuboProblem(q=np.array([[-7.0]]), offset=1.0)  # E(0)=1, E(1)=-6
        dist = PatternDistribution(n_modes=1, probs=np.array([1.0, 0.0]))
        assert cvar_exact(qubo, dist, 1e-9) == pytest.approx(1.0)

    def test_converges_to_sampled_estimate(self):
        rng = np.random.default_rng(37)
        instance = generate_instance(2, 2, seed=55)
        qubo = assemble_qubo(instance)
        theta = ThetaMatrix(bounded_random_theta(rng, 4, spectral_radius=0.8))
        state = state_from_theta(theta)
        dist = full_distribution(state)
        from gbsopt import sample

        energies = qubo.values(sample(state, 100_000, seed=91))
        energy_range = float(np.ptp(qubo.pattern_energies()))
        for alpha in (0.1, 0.25, 1.0):
            assert abs(
                cvar_from_samples(energies, alpha) - cvar_exact(qubo, dist, alpha)
            ) < 0.05 * energy_range


class TestAnalyticExpectation:
    def test_vacuum_returns_offset(self):
        qubo = QuboProblem(q=np.array([[1.0, 0.3], [0.3, -2.0]]), offset=0.7)
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        assert expected_energy_analytic(qubo, state) == pytest.approx(0.7, abs=1e-12)

    def test_single_mode_closed_form(self):
        qubo = QuboProblem(q=np.array([[1.0]]), offset=0.0)
        state = state_from_theta(ThetaMatrix(np.array([[1.0]])))
        assert expected_energy_analytic(qubo, state) == pytest.approx(
            1.0 - 1.0 / np.cosh(1.0), rel=1e-10
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            qubo = random_qubo(rng, n)
            state = state_from_theta(ThetaMatrix(bounded_random_theta(rng, n)))
            exact = expected_energy_exact(qubo, full_distribution(state))
            assert expected_energy_analytic(qubo, state) == pytest.approx(exact, abs=1e-8)

    def test_batch_matches_single(self):
        # every row of an ADAM-shaped stack (2m + 1 rows) and of its
        # sub-stacks is bit for bit the one-row <Q> of its theta
        for n in (1, 6, 16, 20):
            rng = np.random.default_rng(43 + n)
            qubo = random_qubo(rng, n)
            rows = 2 * min(MASK_PER_MODE * n, n * (n + 1) // 2) + 1
            thetas = np.stack([bounded_random_theta(rng, n) for _ in range(rows)])
            single = np.array([
                expected_energy_analytic(qubo, state_from_theta(ThetaMatrix(theta)))
                for theta in thetas
            ])
            middle = slice(rows // 2, rows // 2 + 2)
            for part in (slice(None), slice(1, None), slice(0, 1), middle):
                batch = _energies_from_blocks(covariance_blocks(thetas[part]), qubo)
                assert np.array_equal(batch, single[part]), (n, part)

    def test_dimension_mismatch(self):
        qubo = QuboProblem(q=np.eye(3))
        state = state_from_theta(ThetaMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            expected_energy_analytic(qubo, state)

    def test_finite_difference_gradient_consistency(self):
        # central differences at 1e-5 and 1e-6 agree to 1e-3 relative
        rng = np.random.default_rng(47)
        instance = generate_instance(2, 3, seed=7)
        qubo = assemble_qubo(instance)
        n = qubo.n
        theta0 = bounded_random_theta(rng, n, spectral_radius=0.3)

        def cost(upper):
            return expected_energy_analytic(
                qubo, state_from_theta(ThetaMatrix.from_upper(n, upper))
            )

        upper0 = theta0[np.triu_indices(n)]

        def grad(h):
            g = np.empty(upper0.size)
            for k in range(upper0.size):
                up = upper0.copy()
                up[k] += h
                down = upper0.copy()
                down[k] -= h
                g[k] = (cost(up) - cost(down)) / (2 * h)
            return g

        g5, g6 = grad(1e-5), grad(1e-6)
        scale = np.abs(g5).max()
        assert np.abs(g5 - g6).max() <= 1e-3 * scale


class TestTrain:
    def test_zero_qubo_is_trivially_solved(self):
        qubo = QuboProblem(q=np.zeros((3, 3)), offset=0.0)
        record = train(qubo, TrainConfig(seed=11, alpha=0.1))
        assert all(cost == pytest.approx(0.0, abs=1e-12) for _, cost in record.cost_trace)
        assert record.final_fidelity == pytest.approx(1.0, abs=1e-9)
        assert record.success[0.1] and record.success[0.01]

    def test_small_instance_reaches_threshold(self):
        instance = generate_instance(1, 2, seed=21)
        qubo = assemble_qubo(instance)
        best = 0.0
        for restart in range(5):
            record = train(qubo, TrainConfig(seed=restart, alpha=0.1))
            best = max(best, record.final_fidelity)
        assert best > 0.1

    def test_deterministic_records(self):
        instance = generate_instance(2, 2, seed=31)
        qubo = assemble_qubo(instance)
        cfg = TrainConfig(seed=5, alpha=0.1)
        a = train(qubo, cfg)
        b = train(qubo, cfg)
        assert a.cost_trace == b.cost_trace
        assert np.array_equal(a.best_theta.entries, b.best_theta.entries)
        assert a.final_fidelity == b.final_fidelity
        assert a.n_evals == b.n_evals

    def test_unmasked_entries_stay_frozen(self):
        instance = generate_instance(2, 3, seed=13)
        qubo = assemble_qubo(instance)
        cfg = TrainConfig(seed=3, alpha=0.1)
        record = train(qubo, cfg)
        init_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
        )
        n_upper = qubo.n * (qubo.n + 1) // 2
        init_upper = init_rng.uniform(-INIT_SCALE, INIT_SCALE, n_upper)
        masked = set(build_mask(qubo, min(MASK_PER_MODE * qubo.n, n_upper)).indices)
        trained_upper = record.best_theta.upper()
        for slot, ij in enumerate(zip(*np.triu_indices(qubo.n))):
            if ij not in masked:
                assert trained_upper[slot] == init_upper[slot]

    @staticmethod
    def _assert_trace_is_the_one_row_cost(monkeypatch, qubo, cfg, n_traced):
        """Train at alpha = 1 and check each traced cost, bit for bit, against
        the one-row cost of its iterate: the objective's own cost and
        ``expected_energy_analytic`` of the iterate's state."""
        iterates = []
        record = optim._Objective._record

        def spy(objective, params, cost):
            iterates.append((objective, np.array(params)))
            return record(objective, params, cost)

        monkeypatch.setattr(optim._Objective, "_record", spy)
        trained = train(qubo, cfg)
        assert len(iterates) == len(trained.cost_trace) == n_traced
        for (objective, params), (_, cost) in zip(iterates, trained.cost_trace):
            assert cost == objective._cost(params)
            state = state_from_theta(objective.theta_for(params))
            assert cost == expected_energy_analytic(qubo, state)

    @pytest.mark.parametrize("n_flights, n_gates", [(2, 3), (4, 4)])
    def test_adam_trace_is_the_one_row_cost_of_each_iterate(
        self, monkeypatch, n_flights, n_gates
    ):
        # ADAM evaluates each iterate in a batch with its probes; its traced
        # cost must still be, bit for bit, the one-row cost of that iterate
        qubo = assemble_qubo(generate_instance(n_flights, n_gates, seed=3))
        self._assert_trace_is_the_one_row_cost(
            monkeypatch, qubo, TrainConfig(seed=5, adam_steps=60), 61)

    def test_cobyla_alpha_one_trace_is_the_one_row_cost_of_each_iterate(self, monkeypatch):
        qubo = assemble_qubo(generate_instance(2, 3, seed=3))
        cfg = TrainConfig(seed=5, optimizer="cobyla", max_evals=40)
        self._assert_trace_is_the_one_row_cost(monkeypatch, qubo, cfg, 40)

    @staticmethod
    def _theta_owner_case(n):
        """An objective on a random N-mode theta and QUBO, its initial upper
        triangle and its mask's upper-vector positions; the mask holds two
        diagonal entries, whose upper and lower flat slots coincide."""
        rng = np.random.default_rng(n)
        rows, cols = np.triu_indices(n)
        dim = min(MASK_PER_MODE * n, rows.size)
        diagonal = np.flatnonzero(rows == cols)[[0, n // 2]]
        others = rng.choice(np.setdiff1d(np.arange(rows.size), diagonal), dim - 2, replace=False)
        positions = rng.permutation(np.concatenate([diagonal, others]))
        mask = ParameterMask(indices=tuple(zip(rows[positions], cols[positions])))
        upper = rng.uniform(-INIT_SCALE, INIT_SCALE, rows.size)
        objective = optim._Objective(random_qubo(rng, n),
                                     TrainConfig(seed=1, adam_steps=3).resolved(n),
                                     ThetaMatrix.from_upper(n, upper), mask)
        return objective, upper, positions, rng

    @staticmethod
    def _reference_theta(n, upper, positions, params):
        """ThetaMatrix.from_upper of ``upper`` with the masked entries replaced."""
        upper = upper.copy()
        upper[positions] = params
        return ThetaMatrix.from_upper(n, upper).entries

    @pytest.mark.parametrize("n", [6, 16])
    def test_theta_for_writes_the_masked_entries_into_the_initial_theta(self, n):
        objective, upper, positions, rng = self._theta_owner_case(n)
        initial = ThetaMatrix.from_upper(n, upper).entries
        assert np.array_equal(objective.best_params, upper[positions])
        for scale in (INIT_SCALE, 2.0, 0.5):
            params = rng.uniform(-scale, scale, positions.size)
            theta = objective.theta_for(params)
            assert np.array_equal(theta.entries, self._reference_theta(n, upper, positions, params))
            assert np.array_equal(objective.theta_init, initial)

    @pytest.mark.parametrize("n", [6, 16])
    def test_adam_rows_written_in_place_equal_the_reference_thetas(self, monkeypatch, n):
        # the iterate and its +/-FD_STEP probes, written into the run's one
        # stack of thetas step after step, are bit for bit the thetas
        # assembled by ThetaMatrix.from_upper from each row's parameters
        objective, upper, positions, rng = self._theta_owner_case(n)
        real, stacks = optim._adam_pass, []
        dim = positions.size
        k = np.arange(dim)

        def checked(objective, rows, thetas, work):
            stack = np.repeat(rows[:1], 2 * dim + 1, axis=0)
            stack[2 * k + 1, k] += FD_STEP
            stack[2 * k + 2, k] -= FD_STEP
            assert np.array_equal(rows, stack)
            costs = real(objective, rows, thetas, work)
            for row, row_params in zip(thetas, stack):
                assert np.array_equal(row, self._reference_theta(n, upper, positions, row_params))
            stacks.append(thetas)
            return costs

        monkeypatch.setattr(optim, "_adam_pass", checked)
        for scale in (INIT_SCALE, 2.0, 0.5):
            stacks.clear()
            optim._run_adam(objective, rng.uniform(-scale, scale, dim))
            assert len(stacks) == objective.cfg.adam_steps
            assert all(thetas is stacks[0] for thetas in stacks)

    def test_adam_steps_allocate_no_taylor_workspace(self, monkeypatch):
        # after step 1, steps 2 to 10 at N = 16 traced a 0.58 MiB peak (the
        # closed-form <Q> of 97 rows and their 97 x 48 parameters), where a
        # fresh (97, 7, 16, 16) Taylor workspace per step alone is 1.33 MiB
        bound = 0.8 * 2**20
        qubo = assemble_qubo(generate_instance(4, 4, seed=3))
        fresh = 7 * (2 * MASK_PER_MODE * qubo.n + 1) * qubo.n**2 * 8
        real, steps, peak = optim._adam_pass, [], []

        def traced(*args):
            steps.append(None)
            if len(steps) == 2:
                tracemalloc.start()
            elif len(steps) == 11:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return real(*args)

        monkeypatch.setattr(optim, "_adam_pass", traced)
        train(qubo, TrainConfig(seed=5, adam_steps=11))
        print(f"ADAM steps 2-10 at N = 16: traced peak {peak[0] / 2**20:.2f} MiB, "
              f"bound {bound / 2**20:.2f} MiB, fresh Taylor workspace {fresh / 2**20:.2f} MiB")
        assert len(steps) == 11
        assert peak[0] <= bound < fresh

    def test_eval_budget_respected(self):
        instance = generate_instance(2, 2, seed=17)
        qubo = assemble_qubo(instance)
        record = train(qubo, TrainConfig(seed=2, alpha=0.1))
        assert record.n_evals <= 50 * qubo.n
        indices = [i for i, _ in record.cost_trace]
        assert indices == sorted(indices)
        assert min(c for _, c in record.cost_trace) == pytest.approx(
            min(c for _, c in record.cost_trace)
        )

    def test_budget_below_cobylas_first_simplex_stops_without_a_warning(self):
        # 2 x 3 trains m = 18 entries, so COBYLA's first simplex needs 20
        # evaluations; the objective's budget still stops the run at 5
        qubo = assemble_qubo(generate_instance(2, 3, seed=7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = train(qubo, TrainConfig(seed=2, alpha=0.1, max_evals=5))
        assert record.n_evals == len(record.cost_trace) == 5

    def test_best_theta_attains_min_recorded_cost(self):
        instance = generate_instance(2, 2, seed=19)
        qubo = assemble_qubo(instance)
        record = train(qubo, TrainConfig(seed=23, alpha=0.25))
        state = state_from_theta(record.best_theta)
        recomputed = cvar_exact(qubo, full_distribution(state), 0.25)
        assert recomputed == pytest.approx(min(c for _, c in record.cost_trace), rel=1e-12)

    def test_adam_improves_expectation(self):
        instance = generate_instance(2, 2, seed=29)
        qubo = assemble_qubo(instance)
        record = train(qubo, TrainConfig(seed=7, alpha=1.0, optimizer="adam", adam_steps=60))
        first = record.cost_trace[0][1]
        assert record.cost_trace[-1][0] > record.cost_trace[0][0]
        assert min(c for _, c in record.cost_trace) < first

    def test_adam_requires_exact_alpha_one(self):
        qubo = QuboProblem(q=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="adam"):
            train(qubo, TrainConfig(seed=1, alpha=0.5, optimizer="adam"))
        with pytest.raises(ValueError, match="adam"):
            train(qubo, TrainConfig(seed=1, alpha=1.0, shots_k=100, optimizer="adam"))

    def test_sampled_mode_is_deterministic(self):
        instance = generate_instance(1, 2, seed=37)
        qubo = assemble_qubo(instance)
        cfg = TrainConfig(seed=13, alpha=0.25, shots_k=200, max_evals=40)
        a = train(qubo, cfg)
        b = train(qubo, cfg)
        assert a.cost_trace == b.cost_trace
        assert a.n_evals <= 40

    def test_timeout_is_flagged(self):
        instance = generate_instance(2, 3, seed=41)
        qubo = assemble_qubo(instance)
        record = train(qubo, TrainConfig(seed=3, alpha=0.1, max_seconds=1e-9))
        assert record.timed_out

    def test_adam_timeout_is_flagged(self):
        # the first step's cost and its 2m gradient probes run, then the
        # next evaluation finds the budget spent
        instance = generate_instance(2, 3, seed=41)
        qubo = assemble_qubo(instance)
        record = train(qubo, TrainConfig(seed=3, alpha=1.0, optimizer="adam",
                                         max_seconds=1e-9))
        mask_size = min(3 * qubo.n, qubo.n * (qubo.n + 1) // 2)
        assert record.timed_out
        assert len(record.cost_trace) == 1
        assert record.n_evals == 1 + 2 * mask_size

    def test_exact_mode_capacity(self):
        qubo = QuboProblem(q=np.zeros((21, 21)))
        with pytest.raises(CapacityError):
            train(qubo, TrainConfig(seed=1, alpha=0.5))

    def test_divergence_raises_with_trace(self):
        from gbsopt import TrainingFailedError

        # overflow-scale coefficients make the cost non-finite immediately
        qubo = QuboProblem(q=np.diag([1e308, 1e308]), offset=0.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingFailedError
        ) as excinfo:
            train(qubo, TrainConfig(seed=1, alpha=1.0))
        assert len(excinfo.value.trace) >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=1, alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, optimizer="bfgs")

    def test_resolved_owns_the_size_defaults(self):
        cfg = TrainConfig(seed=1, alpha=0.1)
        assert (cfg.optimizer, cfg.max_evals, cfg.max_seconds) == ("auto", None, 600.0)
        resolved = cfg.resolved(6)
        assert resolved == replace(cfg, optimizer="cobyla", max_evals=300)
        assert resolved.resolved(6) == resolved
        assert TrainConfig(seed=1).resolved(6).optimizer == "adam"
        assert TrainConfig(seed=1, shots_k=10).resolved(20).optimizer == "cobyla"
        assert TrainConfig(seed=1).resolved(20).optimizer == "adam"
        fixed = TrainConfig(seed=1, optimizer="cobyla", max_evals=7)
        assert fixed.resolved(6) == fixed
        assert cfg.resolved(17).max_evals == 850  # the mode cap is not resolved's

    @pytest.mark.parametrize("thresholds, named", [
        ([1.5], "threshold 1.5 must be"), ([float("nan")], "threshold nan must be"),
        ([0.1, -0.2], "threshold -0.2 must be"), ([], "at least one threshold"),
        ("0", "thresholds = '0' must be a list"), ("0.1", "thresholds = '0.1' must be a list"),
    ])
    def test_train_judges_success_at_checked_thresholds(self, thresholds, named):
        qubo = QuboProblem(q=np.zeros((2, 2)), offset=0.0)
        with pytest.raises(ValueError, match=named):
            train(qubo, TrainConfig(seed=1, thresholds=thresholds))
        record = train(qubo, TrainConfig(seed=1, alpha=0.1, max_evals=8, thresholds=[0.5]))
        assert record.success == {0.5: True}

    @pytest.mark.parametrize("max_seconds", [float("nan"), float("inf"), 0, -1])
    def test_max_seconds_must_be_finite_and_positive(self, max_seconds):
        with pytest.raises(ValueError, match=f"max_seconds = {max_seconds!r} must be"):
            TrainConfig(seed=1, max_seconds=max_seconds)

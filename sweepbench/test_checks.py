"""Tests of the benchmark's reference computations against gbsopt.

A wrong reference would reject a correct change to gbsopt, so each helper
in ``checks.py`` is compared here with the program on small random cases.
Run from the root of a checkout:

    python3 -m pytest sweepbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import gbsopt  # noqa: E402
from gbsopt.problems import dump_instance  # noqa: E402


def random_theta(rng, n, scale=0.5):
    a = rng.uniform(-scale, scale, (n, n))
    return (a + a.T) / 2.0


def raw_instance(n_flights, n_gates, seed):
    program = gbsopt.generate_instance(n_flights, n_gates, seed)
    return program, checks.Instance(json.loads(dump_instance(program)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fidelity_formula_matches_pattern_probability(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        theta = random_theta(rng, n)
        state = gbsopt.state_from_theta(gbsopt.ThetaMatrix(theta))
        sigma = checks.husimi_sigma(theta)
        for index in range(1 << n):
            pattern = [(index >> i) & 1 for i in range(n)]
            want = gbsopt.pattern_probability(state, pattern)
            assert checks.pattern_mass(sigma, index) == pytest.approx(want, abs=1e-12)
        minimizers = rng.choice(1 << n, size=min(3, 1 << n), replace=False)
        want = sum(
            gbsopt.pattern_probability(state, [(p >> i) & 1 for i in range(n)])
            for p in minimizers
        )
        assert checks.fidelity(theta, minimizers) == pytest.approx(want, abs=1e-12)


def test_husimi_sigma_matches_program_covariance():
    rng = np.random.default_rng(7)
    theta = random_theta(rng, 4, scale=0.8)
    state = gbsopt.state_from_theta(gbsopt.ThetaMatrix(theta))
    assert np.abs(checks.husimi_sigma(theta) - state.sigma).max() < 1e-12


@pytest.mark.parametrize("size", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_raw_instance_energies_match_qubo_values(size):
    program, inst = raw_instance(*size, seed=sum(size))
    qubo = gbsopt.assemble_qubo(program)
    x = checks.assignment_bits(inst.n)
    want = qubo.values(x)
    assert np.allclose(inst.energies(x), want, rtol=0, atol=1e-9 * inst.scale)


@pytest.mark.parametrize("size", [(2, 3), (2, 4), (3, 3)])
def test_ground_truth_matches_brute_force(size):
    program, inst = raw_instance(*size, seed=11)
    truth = gbsopt.brute_force_solve(gbsopt.assemble_qubo(program))
    e_min, minimizers = inst.ground_truth()
    assert e_min == pytest.approx(truth.min_value, abs=1e-9 * inst.scale)
    bits = checks.assignment_bits(inst.n)[minimizers]
    assert np.array_equal(bits, truth.minimizers)


def test_mean_energy_matches_analytic_expectation():
    rng = np.random.default_rng(3)
    program, inst = raw_instance(2, 3, seed=5)
    qubo = gbsopt.assemble_qubo(program)
    for _ in range(3):
        theta = random_theta(rng, inst.n, scale=0.3)
        state = gbsopt.state_from_theta(gbsopt.ThetaMatrix(theta))
        want = gbsopt.expected_energy_analytic(qubo, state)
        assert checks.mean_energy(inst, theta) == pytest.approx(want, rel=1e-10)


def test_click_probabilities_are_single_mode_marginals():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 4)
    state = gbsopt.state_from_theta(gbsopt.ThetaMatrix(theta))
    dist = gbsopt.full_distribution(state)
    bits = checks.assignment_bits(4)
    want = dist.probs @ bits
    assert np.allclose(checks.click_probabilities(theta), want, atol=1e-12)


def test_success_fractions_match_harness_report(tmp_path):
    plan = gbsopt.ExperimentPlan(
        sizes=[(2, 2)], instances_per_size=2, restarts=2, alphas=(0.1,),
        thresholds=(0.1, 0.01), base_seed=5, train={"max_evals": 14},
    )
    report = gbsopt.run_experiment(plan, tmp_path, workers=1)
    records = [json.loads(p.read_text()) for p in (tmp_path / "runs").glob("*.json")]
    got = checks.success_fractions(records, plan.thresholds)
    want = {(r["n_modes"], r["alpha"], r["threshold"]): r["success_fraction"]
            for r in report.rows}
    assert got == want

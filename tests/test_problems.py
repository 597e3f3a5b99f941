"""Tests for instance generation, QUBO assembly and exact solving."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from gbsopt import (
    CapacityError,
    FgaInstance,
    QuboProblem,
    assemble_qubo,
    brute_force_solve,
    expected_energy_exact,
    generate_instance,
    load_instance,
)
from gbsopt.problems import (
    _constraints_bind,
    dump_instance,
    satisfies_constraints,
)
from gbsopt.torontonian import PatternDistribution, all_patterns, index_to_pattern

from oracles import (
    constraints_bind_by_loops,
    enumerate_minimizers,
    fga_objective_direct,
    qubo_energies_einsum,
)


def random_qubo(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (n, n))
    return QuboProblem(q=(a + a.T) / 2.0, offset=float(rng.uniform(-1.0, 1.0)))


class TestGenerateInstance:
    def test_single_flight_two_gates(self):
        instance = generate_instance(1, 2, seed=5)
        truth = brute_force_solve(assemble_qubo(instance))
        # minimizers assign the flight to exactly one gate
        assert sorted(m.tolist() for m in truth.minimizers) == [[0, 1], [1, 0]]

    def test_two_flights_share_forbidden_pair(self):
        instance = generate_instance(2, 3, seed=9)
        assert instance.forbidden_pairs == ((0, 1),)
        truth = brute_force_solve(assemble_qubo(instance))
        for minimizer in truth.minimizers:
            grid = minimizer.reshape(2, 3)
            assert grid.sum(axis=1).tolist() == [1, 1]
            assert grid[0].argmax() != grid[1].argmax()

    def test_deterministic_per_seed(self):
        a = dump_instance(generate_instance(3, 2, seed=42))
        b = dump_instance(generate_instance(3, 2, seed=42))
        c = dump_instance(generate_instance(3, 2, seed=43))
        assert a == b
        assert a != c

    def test_size_cap(self):
        with pytest.raises(CapacityError, match="25 modes exceed the instance cap 20"):
            generate_instance(5, 5, seed=1)

    def test_transfer_optimum_is_infeasible(self):
        # the accepted instance must have its penalties genuinely binding
        instance = generate_instance(3, 3, seed=77)
        qubo_t_only = QuboProblem(q=instance.transfer, offset=0.0)
        one_hots = []
        for pattern in all_patterns(instance.n_modes):
            grid = pattern.reshape(3, 3)
            if np.all(grid.sum(axis=1) == 1):
                one_hots.append(pattern)
        energies = qubo_t_only.values(one_hots)
        best = min(energies)
        for pattern, energy in zip(one_hots, energies):
            if energy <= best + 1e-9 * max(1.0, abs(best)):
                assert not satisfies_constraints(instance, pattern)


    def test_constraint_check_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        sizes = [(2, 2), (2, 5), (3, 3), (4, 2), (3, 4), (5, 2), (4, 4)]
        decisions = set()
        for n_flights, n_gates in sizes:
            for trial in range(8):
                n = n_flights * n_gates
                # integer transfer times make exact ties between assignments common
                a = rng.integers(0, 4, (n, n)).astype(float)
                if trial == 0:
                    a[:] = 0.0
                pairs = [
                    (i, j)
                    for i in range(n_flights)
                    for j in range(i + 1, n_flights)
                    if rng.random() < 0.5
                ] or [(0, 1)]
                instance = FgaInstance(
                    n_flights=n_flights, n_gates=n_gates, transfer=a + a.T,
                    forbidden_pairs=tuple(pairs), lambda_one=1.0, lambda_not=1.0,
                    seed=trial,
                )
                expected = constraints_bind_by_loops(instance)
                assert _constraints_bind(instance) == expected
                decisions.add(expected)
        assert decisions == {True, False}


class TestAssembleQubo:
    def test_one_flight_two_gates_by_hand(self):
        instance = FgaInstance(
            n_flights=1, n_gates=2, transfer=np.zeros((2, 2)),
            forbidden_pairs=(), lambda_one=1.0, lambda_not=1.0, seed=0,
        )
        qubo = assemble_qubo(instance)
        assert qubo.values([0, 0]) == pytest.approx(1.0)
        assert qubo.values([1, 0]) == pytest.approx(0.0)
        assert qubo.values([0, 1]) == pytest.approx(0.0)
        assert qubo.values([1, 1]) == pytest.approx(1.0)

    def test_forbidden_pair_by_hand(self):
        instance = FgaInstance(
            n_flights=2, n_gates=1, transfer=np.zeros((2, 2)),
            forbidden_pairs=((0, 1),), lambda_one=0.0, lambda_not=1.0, seed=0,
        )
        qubo = assemble_qubo(instance)
        assert qubo.values([1, 1]) == pytest.approx(1.0)
        for x in ([0, 0], [1, 0], [0, 1]):
            assert qubo.values(x) == pytest.approx(0.0)

    def test_matches_direct_expression(self):
        rng = np.random.default_rng(14)
        instance = generate_instance(2, 4, seed=101)
        qubo = assemble_qubo(instance)
        scale = float(np.abs(qubo.q).sum() + abs(qubo.offset))
        for _ in range(100):
            x = rng.integers(0, 2, instance.n_modes)
            assert qubo.values(x) == pytest.approx(
                fga_objective_direct(instance, x), abs=1e-12 * scale
            )

    def test_matches_direct_expression_exhaustive(self):
        for n_flights, n_gates, seed in ((3, 3, 4), (2, 5, 6)):
            instance = generate_instance(n_flights, n_gates, seed=seed)
            qubo = assemble_qubo(instance)
            scale = float(np.abs(qubo.q).sum() + abs(qubo.offset))
            for x in all_patterns(instance.n_modes):
                assert qubo.values(x) == pytest.approx(
                    fga_objective_direct(instance, x), abs=1e-12 * scale
                )


class TestQuboProblem:
    def test_pattern_energies_computed_once_read_only(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (6, 6))
        qubo = QuboProblem(q=(a + a.T) / 2.0, offset=0.5)
        energies = qubo.pattern_energies()
        assert qubo.pattern_energies() is energies
        assert not energies.flags.writeable
        assert np.array_equal(energies, qubo_energies_einsum(qubo.q, qubo.offset,
                                                             all_patterns(6)))

    # bit for bit: the sampled cost's energies are entries of this table,
    # and these pins hold them to a plain row-wise einsum
    @pytest.mark.parametrize("n", [1, 4, 12, 13, 16])
    def test_blocked_energies_equal_one_whole_table_einsum(self, n):
        qubo = random_qubo(n, seed=n)
        einsum = qubo_energies_einsum(qubo.q, qubo.offset, all_patterns(n))
        assert np.array_equal(qubo.pattern_energies(), einsum)

    def test_blocked_energies_at_the_cap_equal_per_row_einsum(self):
        n = 20
        qubo = random_qubo(n, seed=20)
        rng = np.random.default_rng(5)
        # no bit, every bit, each single bit (a diagonal sub-cube only), and random rows
        index = np.concatenate([
            [0, (1 << n) - 1],
            1 << np.arange(n),
            rng.integers(0, 1 << n, 300),
        ])
        rows = index_to_pattern(index, n)
        einsum = qubo_energies_einsum(qubo.q, qubo.offset, rows)
        assert np.array_equal(qubo.pattern_energies()[index], einsum)
        assert np.array_equal(qubo.values(rows), einsum)

    def test_values_read_the_table(self):
        qubo = random_qubo(8, seed=8)
        rows = np.random.default_rng(9).integers(0, 2, (1000, 8), dtype=np.int8)
        einsum = qubo_energies_einsum(qubo.q, qubo.offset, rows)
        for batch in (rows, rows.astype(float), rows.astype(bool)):
            assert np.array_equal(qubo.values(batch), einsum)
        assert qubo.values(rows[7]) == einsum[7]  # one row, one energy
        assert qubo.values(rows.reshape(10, 100, 8)).shape == (10, 100)

    @pytest.mark.parametrize("row, named", [
        ([0, 0.5, 1], r"0 or 1, got \[0.5\]"),
        ([2, 0, 1], r"0 or 1, got \[2\]"),
        ([0, 1], r"patterns \(2,\) are not rows of 3 bits"),
        ([[0, 1, 0, 1]], r"patterns \(1, 4\) are not rows of 3 bits"),
    ], ids=["half", "two", "short", "long"])
    def test_values_refuse_rows_that_are_not_patterns(self, row, named):
        with pytest.raises(ValueError, match=named):
            random_qubo(3, seed=3).values(row)

    def test_energy_order_is_stable_argsort(self):
        # duplicated energies: the stable order keeps ascending pattern index
        qubo = QuboProblem(q=np.diag([1.0, 1.0, -2.0]))
        order = qubo.energy_order()
        assert qubo.energy_order() is order
        assert not order.flags.writeable
        assert order.tolist() == np.argsort(
            qubo.pattern_energies(), kind="stable"
        ).tolist()
        assert order.tolist() == [4, 5, 6, 0, 7, 1, 2, 3]

    def test_energy_order_traced_peak_at_the_cap(self):
        # the argsort is frozen in place: a frozen copy would double its 8 MiB
        qubo = random_qubo(20, seed=20)
        qubo.pattern_energies()  # built outside the trace
        tracemalloc.start()
        try:
            qubo.energy_order()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6


class TestBruteForce:
    def test_constant_qubo(self):
        truth = brute_force_solve(QuboProblem(q=np.zeros((3, 3)), offset=3.0))
        assert truth.min_value == 3.0
        assert len(truth.minimizers) == 8

    def test_degenerate_pair(self):
        instance = FgaInstance(
            n_flights=1, n_gates=2, transfer=np.zeros((2, 2)),
            forbidden_pairs=(), lambda_one=1.0, lambda_not=1.0, seed=0,
        )
        truth = brute_force_solve(assemble_qubo(instance))
        assert truth.min_value == pytest.approx(0.0)
        assert sorted(m.tolist() for m in truth.minimizers) == [[0, 1], [1, 0]]

    def test_against_second_enumerator(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = 10
            a = rng.uniform(-2.0, 2.0, (n, n))
            qubo = QuboProblem(q=(a + a.T) / 2.0, offset=float(rng.uniform(-1, 1)))
            truth = brute_force_solve(qubo)
            best, minimizers = enumerate_minimizers(
                qubo.q.tolist(), qubo.offset, n
            )
            assert truth.min_value == pytest.approx(best, rel=1e-12)
            assert [tuple(m) for m in truth.minimizers] == minimizers

    @pytest.mark.parametrize("n, bound_mb", [(16, 1.0), (20, 10.0)])
    def test_traced_peak(self, n, bound_mb):
        # a fresh problem, so the energies are built inside the trace
        qubo = random_qubo(n, seed=n)
        tracemalloc.start()
        try:
            brute_force_solve(qubo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6

    def test_size_cap(self):
        qubo = QuboProblem(q=np.zeros((21, 21)))
        for solve in (brute_force_solve, QuboProblem.pattern_energies):
            with pytest.raises(CapacityError,
                               match="21 variables exceed the brute-force cap 20"):
                solve(qubo)


class TestExpectedEnergyExact:
    def test_point_mass(self):
        qubo = QuboProblem(q=np.array([[1.0, 0.5], [0.5, -2.0]]), offset=0.3)
        probs = np.zeros(4)
        probs[3] = 1.0  # pattern (1, 1)
        dist = PatternDistribution(n_modes=2, probs=probs)
        assert expected_energy_exact(qubo, dist) == pytest.approx(qubo.values([1, 1]))

    def test_uniform_identity(self):
        qubo = QuboProblem(q=np.eye(2), offset=0.0)
        dist = PatternDistribution(n_modes=2, probs=np.full(4, 0.25))
        assert expected_energy_exact(qubo, dist) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        qubo = QuboProblem(q=np.eye(3))
        dist = PatternDistribution(n_modes=2, probs=np.full(4, 0.25))
        with pytest.raises(ValueError):
            expected_energy_exact(qubo, dist)


class TestPenaltySufficiency:
    def test_minimizers_satisfy_constraints(self):
        # acceptance runs the full 50-instance sweep; spot-check here
        for n_flights, n_gates in [(2, 3), (2, 4), (3, 4)]:
            for idx in range(5):
                instance = generate_instance(n_flights, n_gates, seed=1000 + idx)
                truth = brute_force_solve(assemble_qubo(instance))
                for minimizer in truth.minimizers:
                    assert satisfies_constraints(instance, minimizer)


class TestInstanceFiles:
    def test_round_trip_is_exact(self):
        instance = generate_instance(2, 3, seed=123)
        text = dump_instance(instance)
        again = load_instance(text)
        assert np.array_equal(instance.transfer, again.transfer)
        assert instance.forbidden_pairs == again.forbidden_pairs
        assert instance.lambda_one == again.lambda_one
        assert instance.seed == again.seed
        assert dump_instance(again) == text

    def test_seventeen_significant_digits(self):
        instance = generate_instance(2, 2, seed=3)
        text = dump_instance(instance)
        # a third of walking times land on dyadic-unfriendly reals; the
        # canonical form must carry enough digits to round-trip exactly
        value = float(np.max(instance.transfer))
        assert value > 0
        assert format(value, ".17g") in text

    def test_rejects_unknown_version(self):
        instance = generate_instance(1, 2, seed=1)
        text = dump_instance(instance).replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ValueError, match="format_version"):
            load_instance(text)

    @pytest.mark.parametrize("key, value, named", [
        ("lambda_one", True, "lambda_one = True is not a number"),
        ("lambda_not", False, "lambda_not = False is not a number"),
        ("lambda_one", "7.5", "lambda_one = '7.5' is not a number"),
        ("transfer_matrix", [[0, "7.5"], ["7.5", 0]], "transfer_matrix is not a list of rows"),
        ("transfer_matrix", [[0, True], [True, 0]], "transfer_matrix is not a list of rows"),
        ("transfer_matrix", [[0, None], [None, 0]], "transfer_matrix is not a list of rows"),
    ])
    def test_refuses_weights_and_transfers_that_are_not_numbers(self, key, value, named):
        data = json.loads(dump_instance(generate_instance(1, 2, seed=1)))
        with pytest.raises(ValueError, match=re.escape(f"malformed instance: {named}")):
            load_instance(json.dumps({**data, key: value}))

    @pytest.mark.parametrize("key, value", [
        ("lambda_one", 10**400),
        ("transfer_matrix", [[0, 10**400], [10**400, 0]]),
    ], ids=["lambda_one", "transfer_matrix"])
    def test_refuses_an_integer_too_large_for_a_float(self, key, value):
        # a ValueError, which the CLI maps to exit 2, not an OverflowError
        data = json.loads(dump_instance(generate_instance(1, 2, seed=1)))
        with pytest.raises(ValueError, match="malformed instance: a weight or transfer entry"):
            load_instance(json.dumps({**data, key: value}))

    @pytest.mark.parametrize("counts, named", [
        ((-2, -3), "n_flights = -2 must be at least 1"),
        ((2, -3), "n_gates = -3 must be at least 1"),
    ], ids=["n_flights", "n_gates"])
    def test_refuses_counts_below_one(self, counts, named):
        # (-2, -3) spans six modes, as its transfer matrix does; without the
        # check it loads and assembles with no one-hot penalty at all
        n_flights, n_gates = counts
        data = json.loads(dump_instance(generate_instance(2, 3, seed=1)))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_instance(json.dumps({**data, "n_flights": n_flights, "n_gates": n_gates}))
        with pytest.raises(ValueError, match=re.escape(named)):
            FgaInstance(
                n_flights=n_flights, n_gates=n_gates, transfer=np.zeros((6, 6)),
                forbidden_pairs=(), lambda_one=1.0, lambda_not=1.0, seed=0,
            )

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="symmetric"):
            FgaInstance(
                n_flights=1, n_gates=2, transfer=np.array([[0.0, 1.0], [0.0, 0.0]]),
                forbidden_pairs=(), lambda_one=1.0, lambda_not=1.0, seed=0,
            )
        with pytest.raises(ValueError, match="irreflexive"):
            FgaInstance(
                n_flights=2, n_gates=1, transfer=np.zeros((2, 2)),
                forbidden_pairs=((0, 0),), lambda_one=1.0, lambda_not=1.0, seed=0,
            )

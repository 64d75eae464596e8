"""Exact phase-1 simplex: equality feasibility with nonnegative variables."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from selinf import simplex
from selinf.model import over_common_denominator
from selinf.feasibility import _CONSTRAINTS
from selinf.simplex import ReducedSystem, _phase_one, feasible_point

import fraction_simplex
from fraction_simplex import reduce_system


def F(*args):
    return Fraction(*args)


def solve_reduced(reduced, rhs):
    """The rational oracle's answer for one right-hand side, checked against the integer solver.

    The integer solver takes only right-hand sides that pass the consistency
    rows. With k = 1 and a nonzero rank it runs as the program runs it, through
    ``feasible_point``; otherwise phase 1 runs on k R directly, when it runs.
    """
    x = fraction_simplex.feasible_point(reduced, rhs)
    scaled, lcd = over_common_denominator(rhs)
    reduced_rhs = [sum(c * scaled[j] for j, c in row) for row in reduced.transform]
    rank = len(reduced.pivots)
    if any(reduced_rhs[rank:]):
        assert x is None
    elif reduced.scale == 1 and rank:
        assert feasible_point(reduced.system(), scaled, lcd) == x
    elif any(v < 0 for v in reduced_rhs[:rank]):
        found = _phase_one(reduced.system(), reduced_rhs[:rank])
        assert x == (None if found is None else [Fraction(v, found[1] * lcd) for v in found[0]])
    return x


def solve(matrix, rhs):
    """Reduce the matrix with the oracle, then solve for one right-hand side."""
    return solve_reduced(reduce_system(matrix), rhs)


def check_solution(matrix, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(matrix, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


class TestBasics:
    def test_single_equation(self):
        matrix = [[F(1), F(1)]]
        rhs = [F(1)]
        x = solve(matrix, rhs)
        check_solution(matrix, rhs, x)

    def test_inconsistent_rows(self):
        matrix = [[F(1), F(1)], [F(1), F(1)]]
        assert solve(matrix, [F(1), F(2)]) is None

    def test_negative_rhs_with_nonnegative_row_is_infeasible(self):
        assert solve([[F(1), F(1)]], [F(-1)]) is None

    def test_redundant_rows_are_harmless(self):
        matrix = [[F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
        rhs = [F(1), F(2), F(1, 2)]
        x = solve(matrix, rhs)
        check_solution(matrix, rhs, x)

    def test_negative_basic_solution_recovered_by_phase_one(self):
        # RREF pins x1 = -1 when x2 is nonbasic; phase-1 must still find x2 = 1.
        matrix = [[F(1), F(-1)]]
        rhs = [F(-1)]
        x = solve(matrix, rhs)
        check_solution(matrix, rhs, x)

    def test_sign_trap_needs_pivoting(self):
        # x1 - x2 = -2 and x1 + x2 = 4: unique solution (1, 3)
        matrix = [[F(1), F(-1)], [F(1), F(1)]]
        rhs = [F(-2), F(4)]
        x = solve(matrix, rhs)
        assert x == [F(1), F(3)]

    def test_unique_negative_solution_is_infeasible(self):
        # x1 - x2 = 1 and x1 + x2 = -1 forces x2 = -1
        matrix = [[F(1), F(-1)], [F(1), F(1)]]
        assert solve(matrix, [F(1), F(-1)]) is None

    def test_zero_rhs_returns_origin(self):
        matrix = [[F(1), F(2), F(3)]]
        assert solve(matrix, [F(0)]) == [F(0), F(0), F(0)]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            reduce_system([])

    def test_zero_matrix_with_zero_rhs_returns_origin(self):
        assert solve([[F(0), F(0)]], [F(0)]) == [F(0), F(0)]

    def test_zero_matrix_with_nonzero_rhs_is_infeasible(self):
        assert solve([[F(0), F(0)]], [F(1)]) is None


class TestExactness:
    def test_awkward_fractions_stay_exact(self):
        # substituting (1, 10/3): 1/3 + 10/21 = 17/21 and 2/5 + 10/11 = 72/55
        matrix = [[F(1, 3), F(1, 7)], [F(2, 5), F(3, 11)]]
        rhs = [F(17, 21), F(72, 55)]
        x = solve(matrix, rhs)
        assert x == [F(1), F(10, 3)]

    def test_tiny_infeasibility_detected(self):
        # identical rows whose rhs differ by 1/10^12
        eps = Fraction(1, 10**12)
        matrix = [[F(1), F(1)], [F(1), F(1)]]
        assert solve(matrix, [F(1), F(1) + eps]) is None


class TestRandomSystems:
    def test_constructed_feasible_systems_are_solved(self):
        # build A x0 = b from a known nonnegative x0: must always be feasible
        rng = random.Random(41)
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 8)
            matrix = [
                [Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)
            ]
            x0 = [Fraction(rng.randint(0, 5)) for _ in range(n)]
            rhs = [sum(c * v for c, v in zip(row, x0)) for row in matrix]
            x = solve(matrix, rhs)
            assert x is not None
            check_solution(matrix, rhs, x)

    def test_agreement_with_scipy_on_random_systems(self):
        sp = pytest.importorskip("scipy.optimize")
        rng = random.Random(42)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(2, 6)
            matrix = [
                [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
            ]
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            ours = solve(matrix, rhs)
            ref = sp.linprog(
                c=[0.0] * n,
                A_eq=[[float(c) for c in row] for row in matrix],
                b_eq=[float(b) for b in rhs],
                bounds=[(0, None)] * n,
                method="highs",
            )
            assert (ours is not None) == ref.success
            if ours is not None:
                check_solution(matrix, rhs, ours)


class TestSharedReduction:
    def test_one_reduction_serves_interleaved_right_hand_sides(self):
        rng = random.Random(43)
        # a nonnegative matrix, so a consistent rhs with a negative entry may
        # still need phase 1 to prove infeasibility
        matrix = [[Fraction(rng.randint(0, 3)) for _ in range(6)] for _ in range(3)]
        matrix.append([a + b for a, b in zip(matrix[0], matrix[1])])  # dependent row
        shared = reduce_system(matrix)
        snapshot = reduce_system(matrix)
        infeasible = {0: set(), 1: set(), 2: set(), 3: set()}
        for k in range(120):
            if k % 2 == 0:  # built from a nonnegative point: feasible
                x0 = [Fraction(rng.randint(0, 5)) for _ in range(6)]
                rhs = [sum(c * v for c, v in zip(row, x0)) for row in matrix]
            else:  # arbitrary; the dependent row is off by one when k % 4 == 1
                rhs = [Fraction(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(3)]
                rhs.append(rhs[0] + rhs[1] + (k % 4 == 1))
            x = solve_reduced(shared, rhs)
            assert x == solve(matrix, rhs)
            if x is not None:
                check_solution(matrix, rhs, x)
            infeasible[k % 4].add(x is None)
        assert shared == snapshot
        assert infeasible == {0: {False}, 1: {True}, 2: {False}, 3: {False, True}}


class TestIntegerTableau:
    def test_reduction_is_integer_times_one_scale(self):
        # T of this matrix is not integer: its entries share the denominator 39
        reduced = reduce_system([[F(1, 3), F(1, 7)], [F(2, 5), F(3, 11)]])
        assert reduced.scale > 1
        assert all(type(v) is int for row in reduced.rows for v in row)
        assert all(type(c) is int for row in reduced.transform for _, c in row)
        # R has the identity at its pivot columns, so k R holds the scale there
        assert [row[col] for row, col in zip(reduced.rows, reduced.pivots)] == [reduced.scale] * 2

    def test_artificial_left_basic_at_zero_on_a_negative_row(self):
        # x1 + x3 = 2 and x2 - x3 = -2: phase 1 ends with an artificial basic
        # at zero whose row is negative in the first original column; the
        # program leaves it basic, and the point reads 0 for every original
        # variable not basic
        matrix = [[F(2), F(0), F(2)], [F(1), F(2), F(-1)]]
        rhs = [F(4), F(-2)]
        assert solve(matrix, rhs) == [F(0), F(0), F(2)]
        reduced = reduce_system(matrix)
        scaled_rhs = [sum(c * int(rhs[j]) for j, c in row) for row in reduced.transform]
        values, divisor = _phase_one(reduced.system(), scaled_rhs)
        assert divisor > 0
        assert values == [0, 0, 2 * divisor]

    def test_degenerate_fractional_systems_follow_the_rational_path(self):
        # sparse nonnegative points make degenerate vertices, so phase 1 often
        # ends with artificials basic at zero
        rng = random.Random(44)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 9)
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5))) for _ in range(n)]
                for _ in range(m)
            ]
            if m > 1 and rng.random() < 0.3:
                matrix[-1] = [a + b for a, b in zip(matrix[0], matrix[1])]
            if rng.random() < 0.5:
                x0 = [Fraction(rng.randint(0, 3)) * rng.randint(0, 1) for _ in range(n)]
                rhs = [sum(c * v for c, v in zip(row, x0)) for row in matrix]
            else:
                rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
            x = solve(matrix, rhs)
            if x is not None:
                check_solution(matrix, rhs, x)


@st.composite
def independent_row_systems(draw):
    """k R of a random small integer matrix, its rows independent, and an integer right-hand side."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    matrix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    rows = reduce_system([[Fraction(v) for v in row] for row in matrix]).rows
    rhs = draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def system(rows):
    """The rows alone as a ``ReducedSystem``, the only part phase 1 reads, with an empty step cache of its own."""
    return ReducedSystem(tuple(map(tuple, rows)), (), ())


def point(found):
    """A phase-1 answer as its rational point, or None, once its numerators are checked to be
    nonnegative ints over a positive int divisor."""
    if found is None:
        return None
    values, divisor = found
    assert type(divisor) is int and divisor > 0
    assert all(type(v) is int and v >= 0 for v in values)
    return [Fraction(v, divisor) for v in values]


def same_point_as_the_full_tableau(solved, rhs):
    """Whether phase 1 on ``solved`` returns the full tableau's point for ``rhs``.

    The full tableau also drives out the artificials left basic at zero,
    which changes its divisor but not its point.
    """
    return point(_phase_one(solved, rhs)) == point(fraction_simplex.full_tableau_phase_one(solved.rows, rhs))


class TestCondensedTableau:
    @settings(
        derandomize=True, database=None, max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(independent_row_systems())
    # the system of test_artificial_left_basic_at_zero_on_a_negative_row as reduce_system gives it
    @example(([(4, 0, 4), (0, 4, -4)], [8, -8]))
    # an artificial left basic at zero whose row's smallest structural label is not its
    # first nonzero column; the full tableau's drive-out pivot there changes its divisor
    @example((((10, 0, 0, -12, 25), (0, 10, 0, 8, -10), (0, 0, 10, 2, -10)), [5, -2, 5]))
    def test_same_point_as_the_full_tableau(self, full_tableau_runs, rows_and_rhs):
        rows, rhs = rows_and_rhs
        if rows:
            solved = system(rows)
            full_tableau_runs.clear()
            # cold, the full tableau runs and records its steps; warm, only the right-hand side is pivoted
            assert same_point_as_the_full_tableau(solved, rhs) and len(full_tableau_runs) == 1
            assert same_point_as_the_full_tableau(solved, rhs) and len(full_tableau_runs) == 1


class TestStepCache:
    def test_a_flood_of_systems_leaves_the_programs_cache_alone(self, full_tableau_runs):
        # [I | B] has independent rows; each system is solved for several sign masks in a cache of its own
        _phase_one(_CONSTRAINTS, [1, -1, 0, 0, 0, 0, 0, 0, 1])
        before = dict(_CONSTRAINTS.steps)
        rng = random.Random(46)
        for _ in range(500):
            m = rng.randint(3, 5)
            solved = system([tuple(int(i == j) for j in range(m)) + tuple(rng.randint(-3, 3) for _ in range(3)) for i in range(m)])
            for _ in range(4):
                rhs = [rng.randint(-6, 6) for _ in range(m)]
                runs = len(full_tableau_runs)
                assert same_point_as_the_full_tableau(solved, rhs)
                assert len(full_tableau_runs) - runs <= 1
        assert _CONSTRAINTS.steps == before and before

    def test_a_system_caches_at_most_the_cap(self, full_tableau_runs, monkeypatch):
        # 31 nonempty sign masks of 5 rows, each its own path of at least two states, start
        # and end: the cache fills to the cap, and the misses past it run uncached
        monkeypatch.setattr(simplex, "_CAP", 20)
        rng = random.Random(47)
        solved = system([tuple(int(i == j) for j in range(5)) + tuple(rng.randint(-3, 3) for _ in range(3)) for i in range(5)])
        for _ in range(2):
            for mask in range(1, 32):
                rhs = [-rng.randint(1, 6) if mask >> i & 1 else rng.randint(0, 6) for i in range(5)]
                assert same_point_as_the_full_tableau(solved, rhs)
                assert len(solved.steps) <= 20
        assert len(solved.steps) == 20

    def test_a_call_runs_the_full_tableau_at_most_once(self, full_tableau_runs):
        # Both right-hand sides leave from row 0 first and then from different rows:
        # the second takes two cached steps, then the tableau replays them and serves the rest
        solved = system(((1, -2, 0, 1), (0, 0, 1, -3)))
        for rhs, runs, states in (([2, -4], 1, 3), ([2, -4], 1, 3), ([0, -2], 2, 5), ([0, -2], 2, 5)):
            assert same_point_as_the_full_tableau(solved, rhs)
            assert len(full_tableau_runs) == runs and len(solved.steps) == states

    def test_an_infeasible_run_caches_the_end_of_its_path(self, full_tableau_runs):
        # both take the same steps, and row 1 never leaves: the feasible run ends with its artificial basic at zero
        solved = system(((2, 0, 2, 2), (0, 2, 3, -1)))
        assert _phase_one(solved, [2, -3]) is None
        assert same_point_as_the_full_tableau(solved, [2, -1]) and len(full_tableau_runs) == 1

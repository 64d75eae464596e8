"""Exact phase-1 simplex: equality feasibility with nonnegative variables.

The general systems check the rational oracle in ``fraction_simplex`` against
scipy and hand solutions. The program's phase 1 serves one system, whose every
pivot is 1, so it is checked on that system alone: its state graph, and its
points against the oracle's full tableau.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from selinf import simplex
from selinf.simplex import ROWS, TRANSFORM, _phase_one

import fraction_simplex
from fraction_simplex import reduce_system


def F(*args):
    return Fraction(*args)


def solve(matrix, rhs):
    """Reduce the matrix with the rational oracle, then solve for one right-hand side."""
    return fraction_simplex.feasible_point(reduce_system(matrix), rhs)


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
            x = fraction_simplex.feasible_point(shared, rhs)
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
        # oracle drives it out, and the point reads 0 for every original
        # variable not basic
        matrix = [[F(2), F(0), F(2)], [F(1), F(2), F(-1)]]
        assert solve(matrix, [F(4), F(-2)]) == [F(0), F(0), F(2)]

    def test_degenerate_fractional_systems_are_solved(self):
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


def full_tableau(rhs, driven_out=None):
    """The full tableau's phase 1 on the program's system, its divisor checked to be 1:
    the numerators alone, as the program returns them, or None."""
    found = fraction_simplex.full_tableau_phase_one(ROWS, rhs, driven_out)
    if found is None:
        return None
    values, divisor = found
    assert divisor == 1
    return values


@functools.cache
def state_graph():
    """Each state of phase 1 on the program's system, keyed as in its step cache, with its step; and the longest path.

    The walk starts from the 128 sign masks that valid data gives, since rows 7
    and 8 of T each read one cell and are never negative. From each state it
    leaves by every row with a positive entry in the entering column, a
    superset of the rows Bland's ratio test can take.
    """
    m = len(ROWS)
    graph, depth, pending = {}, 0, []
    for mask in range(1 << 7):
        path = []
        pending.append((mask, mask | 1 << m, path, simplex._tableau_steps(ROWS, mask, path)))
    while pending:
        mask, state, path, steps = pending.pop()
        column, order = graph[state] = next(steps)
        depth = max(depth, len(path))
        assert len(graph) <= 7398 and depth <= 14, "the walk outgrows the graph's pinned size"
        if column is not None:
            *others, last = order
            for i in others:  # a new tableau replays the path to branch; the last row goes on with this one
                branch = path + [i]
                pending.append((mask, state * (m + 1) + i, branch, simplex._tableau_steps(ROWS, mask, branch)))
            path.append(last)
            pending.append((mask, state * (m + 1) + last, path, steps))
    return graph, depth


class TestStateGraph:
    def test_valid_data_never_negates_rows_7_and_8(self):
        assert TRANSFORM[7:] == (((7, 1),), ((3, 1),))

    def test_size_depth_and_unit_pivots(self):
        graph, depth = state_graph()
        assert len(graph) == 7398
        assert sum(column is None for column, _ in graph.values()) == 4960
        assert depth == 14
        # every positive entry of every entering column is 1, so every pivot is 1
        assert all(column[i] == 1 for column, order in graph.values() if column is not None for i in order)

    def test_a_nonnegative_right_hand_side_is_its_own_point(self):
        # Under sign mask 0 each entering column has one positive entry, so the
        # path is single: rows 0 to 8 in order, ending at the basis of the
        # pivot columns, whose point is T (L b) itself
        graph, _ = state_graph()
        m, state, path = len(ROWS), 1 << len(ROWS), []
        column, order = graph[state]
        while column is not None:
            assert len(order) == 1
            path.append(order[0])
            state = state * (m + 1) + order[0]
            column, order = graph[state]
        assert path == list(range(m))
        pivots = tuple(row.index(1) for row in ROWS)  # R is in reduced row echelon form
        assert pivots == (0, 1, 2, 4, 5, 6, 8, 9, 10)
        assert order == tuple(pivots.index(j) if j in pivots else None for j in range(16))


class TestCondensedTableau:
    @settings(
        derandomize=True, database=None, max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(st.integers(0, 6), min_size=9, max_size=9))
    # under the mask of rows 1, 2 and 3 a tie in the ratio test decides the point
    @example([2, 1, 1, 1, 2, 1, 0, 2, 3])
    def test_same_point_as_the_full_tableau_under_every_sign_mask(self, full_tableau_runs, magnitudes):
        simplex.STEPS.clear()
        rhss = [[-v if mask >> i & 1 else v for i, v in enumerate(magnitudes)] for mask in range(512)]
        expected = [full_tableau(rhs) for rhs in rhss]
        full_tableau_runs.clear()
        for rhs, found in zip(rhss, expected):  # cold: each call runs the full tableau at most once
            runs = len(full_tableau_runs)
            assert _phase_one(rhs) == found
            assert len(full_tableau_runs) - runs <= 1
        runs = len(full_tableau_runs)
        for rhs, found in zip(rhss, expected):  # warm: only the right-hand side is pivoted
            assert _phase_one(rhs) == found
        assert len(full_tableau_runs) == runs


class TestStepCache:
    def test_a_pivot_other_than_1_is_refused(self):
        # the first entering column holds a 2 in the row that leaves
        with pytest.raises(AssertionError, match="pivots must be 1"):
            next(simplex._tableau_steps(((2, 0, 2, 2), (0, 2, 3, -1)), 0b10, []))

    def test_a_call_runs_the_full_tableau_at_most_once(self, full_tableau_runs):
        # Both right-hand sides take the same first two steps and then leave from different rows:
        # the second takes them cached, then the tableau replays them and serves the rest
        first, second = [-1, 2, 2, 0, 0, 0, 0, 0, 0], [-1, 1, 2, 0, 0, 0, 0, 0, 0]
        for rhs, runs, states in ((first, 1, 10), (first, 1, 10), (second, 2, 19), (second, 2, 19)):
            assert _phase_one(rhs) == full_tableau(rhs) is not None
            assert len(full_tableau_runs) == runs and len(simplex.STEPS) == states

    def test_an_infeasible_run_caches_the_end_of_its_path(self, full_tableau_runs):
        # both take the same steps, and the feasible run then runs no tableau
        assert _phase_one([0, -2, 0, 1, 1, 0, 1, 2, 0]) is None
        rhs = [0, -1, 0, 1, 1, 0, 1, 2, 0]
        assert _phase_one(rhs) == full_tableau(rhs) is not None and len(full_tableau_runs) == 1

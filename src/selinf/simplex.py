"""Exact feasibility of {x >= 0, A x = b} by a fraction-free phase-1 simplex.

The verdict is exact: no tolerances, no scaling heuristics. The system comes
reduced, as a ``ReducedSystem``: R, the reduced row echelon form of A, as
independent integer rows with the identity at its pivot columns, and the
rows of T that take b to the right-hand side of R x = T b. That equation is
A x = b only for a b that passes the consistency conditions (the rows of T
beyond the rank), which the caller checks. ``feasible_point(reduced, Lb, L)``
takes b as integers Lb over a positive common denominator L: a nonnegative
T(Lb) is itself the basic solution, and otherwise a phase-1 simplex with one
artificial variable per row minimizes their sum under Bland's anti-cycling
rule. Optimum zero yields a feasible point; a positive optimum proves there
is none.

Phase 1 pivots fraction-free (Bareiss 1968): the tableau is an integer
matrix M over a positive common divisor d, the previous pivot. A pivot on p
keeps its row and makes every other row (p*v - f*w) // d, an exact division:
each entry of M is, up to sign, a minor of the initial tableau [R | I | T Lb]
of order at most rank(A), and d is the absolute determinant of the current
basis. So the integers never outgrow those minors, which Hadamard's
inequality bounds. For the program's matrix, 9 independent rows of [R | I]
with five entries of -1 or 1 each, every matrix entry and d are at most
5**4.5 < 1400, and every right-hand side entry at most that times the sum
of |T Lb| <= 153 L: under 18 bits beyond L. The objective row, one more row
of M pivoted like the others, is the artificial-basic rows' sum minus d times
the costs (1 on each artificial): minus each reduced cost, then the objective,
times d, at most rank(A) + 1 times M's largest entry. Bland enters its first
positive column.

Phase 1 solves R y = T(Lb) for y = Lx, with artificials L times the rational
ones. That multiplies the phase-1 objective by L > 0 and each variable by a
positive constant, so every reduced cost keeps its sign and every ratio test
its order: Bland's rule takes the same entering and leaving steps as on the
rational tableau, and the final basis and point are the same.

Systems here are at most 17 x 16; the only sparse trick is skipping zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .model import _Record

ZERO = Fraction(0)


class ReducedSystem(_Record):
    """R (independent integer rows), its pivot columns, and T as (index, coefficient) rows."""

    __slots__ = _fields = ("rows", "pivots", "transform")

    def __init__(
        self, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...],
        transform: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "transform", transform)


def _phase_one(rows: Sequence[Sequence[int]], rhs: list[int]) -> Optional[tuple[list[int], int]]:
    """Phase-1 simplex on an independent-row integer system.

    Returns a nonnegative solution as numerators over one positive common
    denominator, or None when infeasible.
    """
    m = len(rows)
    n = len(rows[0])
    # Artificial variable j = n + i starts basic in row i; rhs must be >= 0.
    tableau: list[list[int]] = []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        sign = -1 if r < 0 else 1
        art = [0] * m
        art[i] = 1
        tableau.append([sign * v for v in row] + art + [sign * r])
    # row m, the objective row: the rows' sum less the cost 1 on each artificial
    tableau.append([sum(column) for column in zip(*tableau)])
    tableau[m][n : n + m] = [0] * m
    basis = [n + i for i in range(m)]
    divisor = 1  # the rational tableau is tableau / divisor

    def pivot(row: int, col: int) -> None:
        nonlocal divisor
        p, w_row = tableau[row][col], tableau[row]  # p > 0
        for i, other in enumerate(tableau):
            if i == row:
                continue
            f = other[col]
            if f:
                tableau[i] = [(p * v - f * w) // divisor for v, w in zip(other, w_row)]
            elif p != divisor:
                tableau[i] = [p * v // divisor for v in other]
        divisor = p
        basis[row] = col

    while True:
        # Bland: smallest improving index
        entering = next((col for col, v in enumerate(tableau[m][:-1]) if v > 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # Ratios rhs/coeff compared by cross-multiplication (both coeffs > 0);
                # Bland tie-break: smallest basis variable index.
                here = tableau[i][-1] * tableau[leaving][entering]
                best = tableau[leaving][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        pivot(leaving, entering)

    if tableau.pop()[-1] != 0:
        return None

    # Drive out artificials stuck basic at zero level; rows are independent,
    # so some original column is always available to pivot on. The row's
    # right-hand side is 0, so negating it to make the pivot positive
    # changes nothing the pivot does not undo.
    for i in range(m):
        if basis[i] >= n:
            col = next(j for j in range(n) if tableau[i][j] != 0)
            if tableau[i][col] < 0:
                tableau[i] = [-v for v in tableau[i]]
            pivot(i, col)

    solution = [0] * n
    for i, var in enumerate(basis):
        solution[var] = tableau[i][-1]
    return solution, divisor


def feasible_point(reduced: ReducedSystem, rhs: Sequence[int], lcd: int) -> Optional[list[Fraction]]:
    """A nonnegative exact solution of A x = b, or None; ``rhs`` is L b, for a positive ``lcd`` = L.

    b must pass the consistency conditions of the system.
    """
    reduced_rhs = [sum(c * rhs[j] for j, c in row) for row in reduced.transform]  # T (L b)
    if all(v >= 0 for v in reduced_rhs):
        solution = [ZERO] * len(reduced.rows[0])
        for col, value in zip(reduced.pivots, reduced_rhs):
            if value:
                solution[col] = Fraction(value, lcd)
        return solution
    found = _phase_one(reduced.rows, reduced_rhs)
    if found is None:
        return None
    # y = Lx
    values, divisor = found
    denominator = divisor * lcd
    return [Fraction(v, denominator) if v else ZERO for v in values]

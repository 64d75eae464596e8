"""Exact-rational feasibility of {x >= 0, A x = b} by phase-1 simplex.

Everything runs on ``fractions.Fraction``, so the verdict is exact: no
tolerances, no scaling heuristics. The pipeline is

1. Gauss-Jordan elimination of the augmented system, which drops dependent
   rows and detects inconsistency (a zero row with nonzero right-hand side);
2. if the reduced system's basic solution is already nonnegative, return it;
3. otherwise a phase-1 simplex with one artificial variable per row,
   minimizing their sum under Bland's anti-cycling rule. Optimum zero yields
   a feasible point; a positive optimum proves there is none.

Sizes here are tiny (the caller's systems are at most 17 rows by 16
columns), so clarity wins over sparse tricks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan pivot in place: scale ``row`` to 1 at ``col``, clear ``col`` elsewhere."""
    inv = ONE / rows[row][col]
    rows[row] = [v * inv for v in rows[row]]
    for i, other in enumerate(rows):
        if i != row and other[col] != 0:
            f = other[col]
            rows[i] = [v - f * w for v, w in zip(other, rows[row])]


def _row_reduce(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[tuple[list[list[Fraction]], list[Fraction], list[int]]]:
    """Reduce [A | b] to reduced row-echelon form.

    Returns (independent rows of A, their rhs, pivot column indices), or
    None when the system is inconsistent. Rows beyond the rank are all-zero
    in A by construction, so consistency is just their rhs being zero.
    """
    rows = [list(row) + [r] for row, r in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        _pivot(rows, rank, col)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    for i in range(rank, len(rows)):
        if rows[i][-1] != 0:
            return None
    reduced = [rows[i][:-1] for i in range(rank)]
    reduced_rhs = [rows[i][-1] for i in range(rank)]
    return reduced, reduced_rhs, pivots


def _phase_one(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Phase-1 simplex on an independent-row system; None when infeasible."""
    m = len(rows)
    n = len(rows[0])
    # Artificial variable j = n + i starts basic in row i; rhs must be >= 0.
    tableau: list[list[Fraction]] = []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        sign = -ONE if r < 0 else ONE
        art = [ZERO] * m
        art[i] = ONE
        tableau.append([sign * v for v in row] + art + [sign * r])
    basis = [n + i for i in range(m)]

    def reduced_cost(col: int) -> Fraction:
        # Phase-1 costs: 1 on artificials, 0 on originals.
        cost = ONE if col >= n else ZERO
        for i in range(m):
            if basis[i] >= n:
                cost -= tableau[i][col]
        return cost

    def pivot(row: int, col: int) -> None:
        _pivot(tableau, row, col)
        basis[row] = col

    while True:
        entering = None
        for col in range(n + m):
            if col in basis:
                continue
            if reduced_cost(col) < 0:
                entering = col
                break  # Bland: smallest improving index
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                # Bland tie-break: smallest basis variable index.
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        pivot(leaving, entering)

    objective = sum((tableau[i][-1] for i in range(m) if basis[i] >= n), ZERO)
    if objective != 0:
        return None

    # Drive out artificials stuck basic at zero level; rows are independent,
    # so some original column is always available to pivot on.
    for i in range(m):
        if basis[i] >= n:
            col = next(j for j in range(n) if tableau[i][j] != 0)
            pivot(i, col)

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        solution[var] = tableau[i][-1]
    return solution


def feasible_point(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """A nonnegative exact solution of A x = b, or None when none exists."""
    if not matrix:
        raise ValueError("empty constraint system")
    reduced = _row_reduce(matrix, rhs)
    if reduced is None:
        return None
    rows, red_rhs, pivots = reduced
    n = len(matrix[0])
    if not rows:
        return [ZERO] * n  # b = 0 under a zero matrix
    if all(v >= 0 for v in red_rhs):
        solution = [ZERO] * n
        for col, value in zip(pivots, red_rhs):
            solution[col] = value
        return solution
    return _phase_one(rows, red_rhs)

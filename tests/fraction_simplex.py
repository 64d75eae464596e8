"""The rational phase-1 simplex, kept for the tests as the integer solver's oracle.

``selinf.simplex`` runs phase 1 on a fraction-free integer tableau and
claims to take the same Bland steps as this ``Fraction`` tableau, so the
two must return the same point (or both None) for every right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from selinf.simplex import ONE, ZERO, ReducedSystem, _pivot


def _phase_one(rows: Sequence[Sequence[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
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


def feasible_point(reduced: ReducedSystem, rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """A nonnegative exact solution of A x = b, or None, all on ``Fraction``."""
    k = reduced.scale
    rows = [[Fraction(v, k) for v in row] for row in reduced.rows]
    transform = [[(j, Fraction(c, k)) for j, c in row] for row in reduced.transform]
    reduced_rhs = [sum((c * rhs[j] for j, c in row), ZERO) for row in transform]
    rank = len(reduced.pivots)
    if any(reduced_rhs[rank:]):
        return None
    del reduced_rhs[rank:]
    if all(v >= 0 for v in reduced_rhs):
        solution = [ZERO] * reduced.ncols
        for col, value in zip(reduced.pivots, reduced_rhs):
            solution[col] = value
        return solution
    return _phase_one(rows, reduced_rhs)

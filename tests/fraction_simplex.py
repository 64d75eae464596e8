"""Gauss-Jordan reduction and the rational phase-1 simplex, kept for the tests as oracles.

``reduce_system`` row-reduces [A | I] on ``Fraction``: it derives the
constant system that ``selinf.feasibility`` ships as a literal, and it
reduces the random systems on which the tests run ``selinf.simplex``. It
keeps the rows of T beyond the rank of A, the consistency conditions,
which the program leaves to marginal selectivity.

``selinf.simplex`` runs phase 1 on a fraction-free integer tableau and
claims to take the same Bland steps as the ``Fraction`` tableau here, so the
two must return the same point (or both None) for every right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from selinf.simplex import ReducedSystem

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan pivot in place: scale ``row`` to 1 at ``col``, clear ``col`` elsewhere."""
    inv = ONE / rows[row][col]
    rows[row] = [v * inv if v else v for v in rows[row]]
    for i, other in enumerate(rows):
        f = other[col]
        if i != row and f:
            rows[i] = [v - f * w if w else v for v, w in zip(other, rows[row])]


@dataclass(frozen=True)
class Reduction:
    """k RREF(A) (independent rows), its pivot columns, k T as (index, coefficient) rows, A's column count, and k.

    T has a row per row of A; its rows beyond the rank vanish on b exactly
    when A x = b is consistent.
    """

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    transform: tuple[tuple[tuple[int, int], ...], ...]
    ncols: int
    scale: int

    def system(self) -> ReducedSystem:
        """R and the first rank rows of T, the form ``selinf.simplex`` solves when k = 1."""
        return ReducedSystem(self.rows, self.pivots, self.transform[: len(self.pivots)])


def reduce_system(matrix: Sequence[Sequence[Fraction]]) -> Reduction:
    """Gauss-Jordan elimination of [A | I]; the result serves every right-hand side."""
    if not matrix:
        raise ValueError("empty constraint system")
    m, n = len(matrix), len(matrix[0])
    rows = [list(row) + [ONE if j == i else ZERO for j in range(m)] for i, row in enumerate(matrix)]
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        _pivot(rows, rank, col)
        pivots.append(col)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    scaled = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    return Reduction(
        rows=tuple(tuple(row[:n]) for row in scaled[: len(pivots)]),
        pivots=tuple(pivots),
        transform=tuple(tuple((j, v) for j, v in enumerate(row[n:]) if v) for row in scaled),
        ncols=n,
        scale=scale,
    )


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


def feasible_point(reduced: Reduction, rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
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

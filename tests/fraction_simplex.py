"""Gauss-Jordan reduction and the rational phase-1 simplex, kept for the tests as oracles.

``reduce_system`` row-reduces [A | I] on ``Fraction``: it derives the
constant system that ``selinf.feasibility`` ships as a literal, and it
reduces the random systems on which the tests run ``selinf.simplex``. It
keeps the rows of T beyond the rank of A, the consistency conditions,
which the program leaves to marginal selectivity.

``selinf.simplex`` runs phase 1 on a condensed integer tableau, its
nonbasic columns only, for the program's system alone, whose every pivot is
1. It claims to take the same Bland steps as the ``Fraction`` tableau here,
so on that system the two must return the same point (or both None) for
every right-hand side. ``full_tableau_phase_one`` is the fraction-free
(Bareiss) phase 1 on every column of any system, basic ones included,
dividing exactly by the previous pivot: on the program's system its divisor
must stay 1 and its numerators must be the condensed phase 1's. This oracle
also drives out the artificials left basic at zero, which the program does
not; those pivots change no value. On a positive optimum the ``Fraction``
phase 1 also returns its simplex multipliers y, which ``phase_one_farkas``
turns into the solver's own proof of infeasibility.
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


def _phase_one(rows: Sequence[Sequence[Fraction]], rhs: list[Fraction]) -> tuple[Optional[list[Fraction]], list[Fraction]]:
    """Phase-1 simplex on an independent-row system: a nonnegative solution or None, and y.

    Row i is negated when its rhs is negative (the signs S), and artificial i
    starts basic in it, so the artificial columns start as the identity and end
    as B^-1 of the final basis. y = c_B^T B^-1 is the sum of the artificial
    part of the rows whose basic variable is artificial, taken at the optimum
    before any artificial is driven out. On a positive optimum, u = -S y has
    u^T R >= 0 and u^T rhs < 0: no reduced cost is negative, and the optimum
    is y^T S rhs > 0.
    """
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

    artificial_rows = [tableau[i] for i in range(m) if basis[i] >= n]
    y = [sum((row[n + k] for row in artificial_rows), ZERO) for k in range(m)]
    if sum((row[-1] for row in artificial_rows), ZERO) != 0:
        return None, y

    # Drive out artificials stuck basic at zero level; rows are independent,
    # so some original column is always available to pivot on.
    for i in range(m):
        if basis[i] >= n:
            col = next(j for j in range(n) if tableau[i][j] != 0)
            pivot(i, col)

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        solution[var] = tableau[i][-1]
    return solution, y


def full_tableau_phase_one(
    rows: Sequence[Sequence[int]], rhs: list[int], driven_out: Optional[list[int]] = None
) -> Optional[tuple[list[int], int]]:
    """The fraction-free phase 1 on the whole tableau [R | I | T Lb], kept to check ``selinf.simplex``.

    Each pivot rewrites every column, basic ones included; ``selinf.simplex``
    keeps only the nonbasic columns and must return the same point. The row
    of each artificial driven out at optimum zero is appended to ``driven_out``.
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
            if driven_out is not None:
                driven_out.append(i)

    solution = [0] * n
    for i, var in enumerate(basis):
        solution[var] = tableau[i][-1]
    return solution, divisor


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
    return _phase_one(rows, reduced_rhs)[0]


def phase_one_farkas(reduced: Reduction, rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """u = -S y over the rows of R when phase 1 runs on A x = b and ends with a positive optimum, else None.

    b must pass the consistency rows; S holds the signs of T b, with which
    ``_phase_one`` signs the rows of R. u^T R >= 0 and u^T T b < 0, and R is
    T A on those rows, so T^T u is a Farkas vector for the equations of A.
    """
    k = reduced.scale
    rank = len(reduced.pivots)
    rows = [[Fraction(v, k) for v in row] for row in reduced.rows]
    reduced_rhs = [sum((Fraction(c, k) * rhs[j] for j, c in row), ZERO) for row in reduced.transform[:rank]]
    if all(v >= 0 for v in reduced_rhs):
        return None
    solution, y = _phase_one(rows, reduced_rhs)
    if solution is not None:
        return None
    return [v if r < 0 else -v for v, r in zip(y, reduced_rhs)]

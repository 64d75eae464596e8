"""Exact feasibility of {x >= 0, A x = b} by an integer phase-1 simplex whose every pivot is 1.

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

Phase 1 pivots on a condensed integer tableau M, with one column per
nonbasic variable (its label) and the right-hand side; basic columns, unit
columns, are not kept. On the program's system every positive entry of every
entering column is 1 (tests/test_simplex.py walks every state to show it), so
every pivot is 1 and nothing is divided: a pivot keeps its row, subtracts f
times it from each other row with f != 0 in the entering column, and hands
that column to the leaving variable: -f in each other row, 1 in the pivot
row. An entering column with another positive entry raises AssertionError,
as an unbounded objective does. So every basis has determinant 1 up to sign,
and each entry of M is, up to sign, a minor of [R | I] of order at most
rank(A). For the program's matrix, 9 independent rows with five entries of -1
or 1 each, Hadamard's inequality bounds those by 5**4.5 < 1400, and every
right-hand side entry by that times the sum of |T Lb| <= 153 L: under 18
bits beyond L, and the objective, a sum of at most 9 of them, under 22. The
objective row, one more row of M pivoted like the others,
is the artificial-basic rows' sum minus the costs (1 on each artificial):
minus each reduced cost, then the objective. Bland enters the positive entry
of smallest label, and the ratio test takes the row of least right-hand side
among the entering column's 1s, on a tie the first in Bland's order.

Phase 1 solves R y = T(Lb) for y = Lx, with artificials L times the rational
ones. That multiplies the phase-1 objective by L > 0 and each variable by a
positive constant, so every reduced cost keeps its sign and every ratio test
its order: Bland's rule takes the same entering and leaving steps as on the
rational tableau, and the final basis and point are the same. Each weight is
an integer over L.

Phase 1 stops at its optimum, with no drive-out: an artificial left basic at
zero has right-hand side 0, so driving it out would change no variable's
value.

Only the ratio test reads the data. The entering column depends only on the
state: the sign mask (the rows where T(Lb) < 0) and the rows left so far,
one integer. Each system caches, per state, the column or, at the end, the
basis, and along cached states phase 1 pivots only the right-hand side. From
the first state not cached, one run of the full tableau serves and records
the rest: a miss costs one full phase 1. The cache has no cap and evicts
nothing: from the 127 sign masks that valid data gives, the program's system
reaches 7,388 states, none more than 14 pivots deep. 400 selective-batch
experiments fill 678 of them, 0.20 MB.

Systems here are at most 17 x 16; the only sparse trick is skipping zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .model import _Record

ZERO = Fraction(0)


class ReducedSystem(_Record):
    """R (independent integer rows), its pivot columns, and T as (index, coefficient) rows."""

    __slots__ = ("rows", "pivots", "transform", "steps")
    _fields = ("rows", "pivots", "transform")
    steps: dict[int, tuple]  # derived: phase 1's step cache for this system, empty at first

    def __init__(
        self, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...],
        transform: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "steps", {})


def _phase_one(system: ReducedSystem, rhs: list[int]) -> Optional[list[int]]:
    """Phase-1 simplex on the system's independent integer rows.

    Returns a nonnegative integer solution, or None when infeasible.
    """
    rows, steps, m = system.rows, system.steps, len(system.rows)
    mask = sum(1 << i for i, r in enumerate(rhs) if r < 0)
    state = mask | 1 << m  # one integer per path: each step appends its leaving row as a digit in base m + 1
    values = [*map(abs, rhs), sum(map(abs, rhs))]  # the rows' right-hand sides, then the objective
    path, tableau = [], None
    while True:
        step = None if tableau else steps.get(state)
        if step is None:  # a state not cached has no cached successor: the full tableau serves the rest
            tableau = tableau or _tableau_steps(rows, mask, path)
            step = steps[state] = next(tableau)
        column, order = step
        if column is None:
            break
        # the least ratio values / 1; on a tie the first, the smaller basic variable
        leaving = min(order, key=values.__getitem__)
        lead = values[leaving]
        values = [v - f * lead if f else v for v, f in zip(values, column)]
        values[leaving] = lead
        path.append(leaving)
        state = state * (m + 1) + leaving
    if values[m] != 0:
        return None
    # at the end, ``order`` holds each original variable's row if it is basic, else None
    return [0 if i is None else values[i] for i in order]


def _tableau_steps(rows: Sequence[Sequence[int]], mask: int, path: list[int]) -> Iterator[tuple]:
    """Phase 1's steps from the condensed tableau without its right-hand side: it pivots on
    each row of ``path``, which the caller extends after each step yielded at its end."""
    m, n = len(rows), len(rows[0])
    # Artificial variable n + i starts basic in row i. A row holds one column per
    # nonbasic variable, named in ``labels``.
    tableau = [[-v for v in row] if mask >> i & 1 else list(row) for i, row in enumerate(rows)]
    # row m, the objective row: the rows' sum, the artificials' unit costs cancelling
    tableau.append(list(map(sum, zip(*tableau))))
    labels = list(range(n))
    basis = [n + i for i in range(m)]
    taken = 0
    while True:
        # Bland: smallest improving variable
        improving = [label for label, v in zip(labels, tableau[m]) if v > 0]
        if not improving:
            break
        col = labels.index(min(improving))
        if taken == len(path):
            column = tuple(row[col] for row in tableau)
            order = tuple(sorted((i for i in range(m) if column[i] > 0), key=basis.__getitem__))
            if not order:
                raise AssertionError("phase-1 objective cannot be unbounded")
            if any(column[i] != 1 for i in order):
                raise AssertionError("phase-1 pivots must be 1")
            yield column, order
        row = path[taken]  # pivot on 1 in the row that leaves: only the other rows change
        changed = [(j, w) for j, w in enumerate(tableau[row]) if w]
        for i, other in enumerate(tableau):
            f = other[col]
            if i != row and f:
                for j, w in changed:
                    other[j] -= f * w
                other[col] = -f  # the leaving variable's column
        basis[row], labels[col] = labels[col], basis[row]
        taken += 1
    # at optimum zero, an artificial still basic is at zero and changes no original variable's value
    yield None, tuple(basis.index(j) if j in basis else None for j in range(n))


def feasible_point(reduced: ReducedSystem, rhs: Sequence[int], lcd: int) -> Optional[list[Fraction]]:
    """A nonnegative exact solution of A x = b, or None; ``rhs`` is L b, for a positive ``lcd`` = L.

    b must pass the consistency conditions of the system.
    """
    reduced_rhs = [sum([c * rhs[j] for j, c in row]) for row in reduced.transform]  # T (L b)
    if all(v >= 0 for v in reduced_rhs):
        solution = [ZERO] * len(reduced.rows[0])
        for col, value in zip(reduced.pivots, reduced_rhs):
            if value:
                solution[col] = Fraction(value, lcd)
        return solution
    found = _phase_one(reduced, reduced_rhs)
    if found is None:
        return None
    return [Fraction(v, lcd) if v else ZERO for v in found]  # y = Lx

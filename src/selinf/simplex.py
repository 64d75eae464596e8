"""Exact feasibility of the program's system {x >= 0, A x = b} by an integer phase-1 simplex whose every pivot is 1.

The verdict is exact: no tolerances, no scaling heuristics. A, the 17 x 16
matrix of the hidden-state model, never changes; only b depends on the data.
It ships reduced: ``ROWS`` is R, the reduced row echelon form of A, as
independent integer rows with the identity at its pivot columns 0, 1, 2, 4,
5, 6, 8, 9 and 10, and ``TRANSFORM`` holds the rows of T that take b to the
right-hand side of R x = T b. That equation is A x = b only for a b that
passes the consistency conditions (the rows of T beyond the rank), which the
caller checks. ``feasible_point(Lb)`` takes b as integers Lb over a positive
common denominator L, and phase 1 runs on T(Lb): one artificial variable per
row, their sum minimized under Bland's anti-cycling rule. Optimum zero yields
the integers y = Lx of a feasible point x; a positive optimum proves there is
none.

Phase 1 pivots on a condensed integer tableau M, with one column per
nonbasic variable (its label) and the right-hand side; basic columns, unit
columns, are not kept. On this system every positive entry of every
entering column is 1 (tests/test_simplex.py walks every state to show it), so
every pivot is 1 and nothing is divided: a pivot keeps its row, subtracts f
times it from each other row with f != 0 in the entering column, and hands
that column to the leaving variable: -f in each other row, 1 in the pivot
row. An entering column with another positive entry raises AssertionError,
as an unbounded objective does. So every basis has determinant 1 up to sign,
and each entry of M is, up to sign, a minor of [R | I] of order at most
rank(A). For R, 9 independent rows with five entries of -1
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
rational tableau, and the final basis and point are the same.

Phase 1 stops at its optimum, with no drive-out: an artificial left basic at
zero has right-hand side 0, so driving it out would change no variable's
value. A nonnegative T(Lb) needs no special case: each entering column on its
path has one positive entry, so phase 1 pivots rows 0 to 8 in order and ends
at the basis of the pivot columns, whose point is T(Lb) itself.

Only the ratio test reads the data. The entering column depends only on the
state: the sign mask (the rows where T(Lb) < 0) and the rows left so far,
one integer. ``STEPS`` caches, per state, the column's nonzero (row, entry)
pairs or, at the end, the basis, and along cached states phase 1 pivots only
the right-hand side, in those rows alone, objective included. From
the first state not cached, one run of the full tableau serves and records
the rest: a miss costs one full phase 1. The cache has no cap and evicts
nothing: from the 128 sign masks that valid data gives, phase 1 reaches
7,398 states, none more than 14 pivots deep. 400 selective-batch
experiments fill 688 of them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

# The 16 cell equations, one per (treatment, outcome pair) in table cell
# order, then normalization, have rank 9; hidden state i's column has a 1 in
# normalization and each cell k with i in ``selinf.feasibility._CELL_STATES[k]``.
# Row-reduced, they are R x = T b below, b the cells then 1; the 8 rows of T
# beyond the rank say that b satisfies marginal selectivity exactly and that
# each table sums to 1 (tests/test_feasibility.py re-derives all of this
# from the state strings).
ROWS = (
    (1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1),
    (0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1),
    (0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, -1),
    (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 1, 0, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
)
# T's first 9 rows, each as (index into b, coefficient) pairs
TRANSFORM = (
    ((3, 1), (6, -1), (9, -1), (12, 1)),
    ((7, -1), (8, 1), (9, 1), (12, -1)),
    ((3, -1), (9, 1)),
    ((1, -1), (3, -1), (4, 1), (6, 1), (9, 1), (12, -1)),
    ((0, 1), (1, 1), (4, -1), (7, 1), (8, -1), (9, -1), (12, 1)),
    ((1, 1), (3, 1), (9, -1)),
    ((3, -1), (6, 1)),
    ((7, 1),),
    ((3, 1),),
)
STEPS: dict[int, tuple] = {}  # phase 1's step cache, keyed by state


def _phase_one(rhs: list[int]) -> Optional[list[int]]:
    """Phase-1 simplex on R y = ``rhs``: a nonnegative integer solution, or None when infeasible."""
    m = len(ROWS)
    mask = sum(1 << i for i, r in enumerate(rhs) if r < 0)
    state = mask | 1 << m  # one integer per path: each step appends its leaving row as a digit in base m + 1
    values = [*map(abs, rhs), sum(map(abs, rhs))]  # the rows' right-hand sides, then the objective
    path, tableau = [], None
    while True:
        step = None if tableau else STEPS.get(state)
        if step is None:  # a state not cached has no cached successor: the full tableau serves the rest
            tableau = tableau or _tableau_steps(ROWS, mask, path)
            step = STEPS[state] = next(tableau)
        pairs, order = step
        if pairs is None:
            break
        # the least ratio values / 1; on a tie the first, the smaller basic variable
        leaving = min(order, key=values.__getitem__)
        lead = values[leaving]
        for i, f in pairs:  # the column's nonzero entries, objective row included
            values[i] -= f * lead
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
            yield tuple((i, f) for i, f in enumerate(column) if f), order
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


def feasible_point(rhs: Sequence[int]) -> Optional[list[int]]:
    """y = Lx for a nonnegative exact solution x of A x = b, or None; ``rhs`` is L b, for a positive L.

    b must pass the consistency conditions of the system.
    """
    return _phase_one([sum([c * rhs[j] for j, c in row]) for row in TRANSFORM])  # T (L b)

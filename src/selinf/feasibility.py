"""Latent-model representability of four joint tables, decided exactly.

A deterministic hidden state fixes all four responses at once: A's answer at
a and at a', B's answer at b and at b'. There are 16 such states, each held
as its sign string such as "+-+-", and the mixtures over them are exactly the
models in which each response reads only its own factor plus a shared random
source. Whether observed tables admit such a mixture is a linear feasibility
question in the 16 weights. Its constant matrix is one table of the cell each
state fills under each treatment, which the push-forward reads too. Data that
violates marginal selectivity fails it outright; the rest is decided here
with an exact phase-1 simplex. The answer is either a witness distribution
or a certificate (a marginal-selectivity inequality or a CHSH facet above 2,
read from the caller's reports of the same data) that provably excludes
every mixture. Fine's theorem guarantees that this fixed family, the four
marginal comparisons and the eight facets, each named by its sign pattern, is
complete for this design, and ``fine_criterion`` provides that closed form as
an independent cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from .chsh import ChshReport, compute_gamma
from .errors import InvalidDistribution, InvalidValue, SelinfError
from .model import (
    TREATMENTS,
    ExperimentData,
    JointTable,
    Rational,
    _Record,
    decode_signs,
    over_common_denominator,
    printable,
    rational,
)
from .selectivity import MarginalComparison, MarginalReport, check_marginal_selectivity
from .simplex import ReducedSystem, feasible_point


# The 16 deterministic states, written A(a) A(a') B(b) B(b') in "+"/"-", in
# lexicographic order with "+" first.
HIDDEN_STATES: tuple[str, ...] = tuple(map("".join, itertools.product("+-", repeat=4)))

# Per state, the cell it fills under each treatment k = 2 (alpha at a') + (beta
# at b'), as its position 4 k + c among the 16 cells (c in the order pp, pm, mp,
# mm): A gives the state's sign at its alpha level, B the sign at 2 + its beta level.
_STATE_CELLS = tuple(
    tuple(4 * (2 * i + j) + 2 * (state[i] == "-") + (state[2 + j] == "-") for i in (0, 1) for j in (0, 1))
    for state in HIDDEN_STATES
)


class HiddenStateDistribution(_Record):
    """Probability weights over the 16 deterministic states, summing to 1 (checked on integers)."""

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: tuple[Rational, ...]) -> None:
        ws = tuple(w if isinstance(w, Fraction) else rational(w) for w in weights)
        if len(ws) != 16:
            raise InvalidDistribution(f"need 16 weights, got {len(ws)}")
        numerators, lcd = over_common_denominator(ws)
        if any(p < 0 for p in numerators):
            raise InvalidDistribution("weights must be nonnegative")
        if sum(numerators) != lcd:
            raise InvalidDistribution(f"weights sum to {printable(Fraction(sum(numerators), lcd))}, expected exactly 1")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Rational]) -> "HiddenStateDistribution":
        """Build from {"+-+-": weight}, states written A(a)A(a')B(b)B(b'); missing states get 0."""
        ws = [Fraction(0)] * 16
        for state, weight in mapping.items():
            decode_signs(state, 4, "hidden state string", InvalidValue)  # the 16 states are every such string
            ws[HIDDEN_STATES.index(state)] += rational(weight)
        return cls(tuple(ws))

    def items(self) -> Iterator[tuple[str, Fraction]]:
        return zip(HIDDEN_STATES, self.weights)

    def nonzero_items(self) -> Iterator[tuple[str, Fraction]]:
        return ((s, w) for s, w in self.items() if w != 0)


def predicted_tables(dist: HiddenStateDistribution) -> ExperimentData:
    """Push the state distribution forward to one joint table per treatment.

    The weights' numerators over their common denominator are summed into the
    16 cells on integers, and each cell becomes a ``Fraction`` once.
    """
    numerators, lcd = over_common_denominator(dist.weights)
    cells = [0] * 16
    for targets, p in zip(_STATE_CELLS, numerators):
        for k in targets:
            cells[k] += p
    return ExperimentData(
        tables={t: JointTable(*(Fraction(p, lcd) for p in cells[4 * t.index : 4 * t.index + 4])) for t in TREATMENTS}
    )


class FacetViolation(_Record):
    """A CHSH facet, named by its sign pattern such as "+++-", whose signed sum exceeds the classical bound 2."""

    __slots__ = _fields = ("pattern", "value")

    def __init__(self, pattern: str, value: Fraction) -> None:
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "value", value)


Certificate = Union[MarginalComparison, FacetViolation]


class FeasibilityResult(_Record):
    """Outcome of the hidden-state feasibility decision.

    ``all_violations`` lists every violated condition in the fixed search
    order (marginal comparisons, then CHSH facets). The result is
    ``feasible`` exactly when it is empty, and the ``certificate`` is its
    first entry; both are derived once. A feasible result may carry a witness
    distribution whose push-forward equals the data exactly.
    """

    __slots__ = ("witness", "all_violations", "feasible", "certificate")
    _fields = ("witness", "all_violations")
    feasible: bool
    certificate: Optional[Certificate]

    def __init__(
        self, witness: Optional[HiddenStateDistribution] = None, all_violations: tuple[Certificate, ...] = ()
    ) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "all_violations", all_violations)
        if witness is not None and all_violations:
            raise InvalidValue("a result with violated conditions has no witness")
        object.__setattr__(self, "feasible", not all_violations)
        object.__setattr__(self, "certificate", all_violations[0] if all_violations else None)


def fine_violations(chsh: ChshReport, marginals: MarginalReport) -> list[Certificate]:
    """All violated conditions: marginal inequalities first, then CHSH facets."""
    violations: list[Certificate] = [c for c in marginals.comparisons if c.delta > 0]
    violations += [FacetViolation(p, v) for p, v in chsh.sums.items() if v > 2]
    return violations


def fine_criterion(data: ExperimentData) -> bool:
    """Exact marginal selectivity and all eight CHSH facets at most 2."""
    return check_marginal_selectivity(data).satisfied and compute_gamma(data).gamma <= 2


# The 16 cell equations, one per (treatment, outcome pair) in table cell
# order, then normalization, have rank 9; state i's column has a 1 in the
# cells _STATE_CELLS[i] and in normalization. Row-reduced, they are R x = T b
# below, b the cells then 1; the 8 rows of T beyond the rank say that b
# satisfies marginal selectivity exactly and that each table sums to 1
# (tests/test_feasibility.py re-derives all of this from the state strings).
_CONSTRAINTS = ReducedSystem(
    rows=(
        (1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1),
        (0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1),
        (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1),
        (0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, -1),
        (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 1, 0, 0, -1),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
    ),
    pivots=(0, 1, 2, 4, 5, 6, 8, 9, 10),
    transform=(
        ((3, 1), (6, -1), (9, -1), (12, 1)),
        ((7, -1), (8, 1), (9, 1), (12, -1)),
        ((3, -1), (9, 1)),
        ((1, -1), (3, -1), (4, 1), (6, 1), (9, 1), (12, -1)),
        ((0, 1), (1, 1), (4, -1), (7, 1), (8, -1), (9, -1), (12, 1)),
        ((1, 1), (3, 1), (9, -1)),
        ((3, -1), (6, 1)),
        ((7, 1),),
        ((3, 1),),
    ),
)


def solve_feasibility(
    data: ExperimentData, chsh: ChshReport, marginals: MarginalReport
) -> FeasibilityResult:
    """Decide exactly whether some hidden-state mixture reproduces the data.

    Data that violates marginal selectivity exactly (a comparison in
    ``marginals`` with a nonzero ``delta``, whatever its tolerance) fails the
    system's consistency conditions and is infeasible at once. Otherwise the
    verdict comes from the exact phase-1 simplex on the 16-weight system
    (the 16 cell equations plus normalization, reduced to the constant
    ``_CONSTRAINTS``; its right-hand side, the cells then 1, is
    ``data.scaled_cells`` over its last entry). Certificates are not read off
    the solver: they are the violated conditions in ``marginals`` and ``chsh``,
    the reports of the same data, which Fine's theorem makes complete for this design.
    """
    if marginals.max_delta == 0:
        solution = feasible_point(_CONSTRAINTS, data.scaled_cells, data.scaled_cells[16])
        if solution is not None:
            return FeasibilityResult(witness=HiddenStateDistribution(tuple(solution)))
    violations = fine_violations(chsh, marginals)
    if not violations:
        raise SelinfError(
            "solver found no mixture but no marginal or facet condition is violated"
        )
    return FeasibilityResult(all_violations=tuple(violations))


def verify_witness(dist: HiddenStateDistribution, data: ExperimentData) -> bool:
    """True iff the push-forward of ``dist`` equals the data cell-by-cell."""
    predicted = predicted_tables(dist)
    return all(predicted.table(t) == data.table(t) for t in TREATMENTS)

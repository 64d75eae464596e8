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
every mixture. Fine's theorem guarantees the certificate family is complete
for this design, and ``fine_criterion`` provides that closed form as an
independent cross-check.

An unrestricted representation, in which both responses may read both
factors, always exists: ``construct_general_representation`` builds one as a
product measure over the 256 tuples of per-treatment outcome pairs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from .chsh import ChshReport, SignPattern, compute_gamma
from .errors import InvalidDistribution, InvalidValue, SelinfError
from .model import (
    CELLS,
    TREATMENTS,
    ExperimentData,
    JointTable,
    Rational,
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


@dataclass(frozen=True, slots=True)
class HiddenStateDistribution:
    """Probability weights over the 16 deterministic states, summing to 1 (checked on integers)."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(w if isinstance(w, Fraction) else rational(w) for w in self.weights)
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


# One outcome pair per treatment, in canonical treatment order: 4^4 = 256 tuples.
OutcomePair = tuple[int, int]
OutcomeTuple = tuple[OutcomePair, OutcomePair, OutcomePair, OutcomePair]


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


@dataclass(frozen=True)
class GeneralRepresentation:
    """A joint source over per-treatment outcome tuples; reproduces any tables.

    Stored sparsely: tuples with zero weight are omitted.
    """

    weights: Mapping[OutcomeTuple, Fraction]

    def __post_init__(self) -> None:
        fixed = {}
        for tup, w in self.weights.items():
            if len(tup) != 4 or any(pair not in CELLS for pair in tup):
                raise InvalidValue(f"bad outcome tuple {tup!r}")
            w = rational(w)
            if w < 0:
                raise InvalidDistribution("weights must be nonnegative")
            if w != 0:
                fixed[tuple(tup)] = w
        if sum(fixed.values()) != 1:
            raise InvalidDistribution("weights must sum to exactly 1")
        object.__setattr__(self, "weights", fixed)


def construct_general_representation(data: ExperimentData) -> GeneralRepresentation:
    """Product measure across treatments; always exists and reconstructs exactly."""
    weights: dict[OutcomeTuple, Fraction] = {}
    tables = [data.table(t) for t in TREATMENTS]
    for pair0 in CELLS:
        w0 = tables[0].cell(*pair0)
        if w0 == 0:
            continue
        for pair1 in CELLS:
            w1 = w0 * tables[1].cell(*pair1)
            if w1 == 0:
                continue
            for pair2 in CELLS:
                w2 = w1 * tables[2].cell(*pair2)
                if w2 == 0:
                    continue
                for pair3 in CELLS:
                    w3 = w2 * tables[3].cell(*pair3)
                    if w3 != 0:
                        weights[(pair0, pair1, pair2, pair3)] = w3
    return GeneralRepresentation(weights)


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class FacetViolation:
    """A CHSH facet whose signed sum exceeds the classical bound 2."""

    pattern: SignPattern
    value: Fraction


Certificate = Union[MarginalComparison, FacetViolation]


@dataclass(frozen=True, slots=True)
class FeasibilityResult:
    """Outcome of the hidden-state feasibility decision.

    Feasible results carry a witness distribution whose push-forward equals
    the data exactly. Infeasible results carry the first violated condition
    in the fixed search order (marginal comparisons, then CHSH facets) as
    ``certificate``, with every violated condition listed in
    ``all_violations``.
    """

    verdict: Verdict
    witness: Optional[HiddenStateDistribution] = None
    certificate: Optional[Certificate] = None
    all_violations: tuple[Certificate, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


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
            witness = HiddenStateDistribution(tuple(solution))
            return FeasibilityResult(verdict=Verdict.FEASIBLE, witness=witness)
    violations = fine_violations(chsh, marginals)
    if not violations:
        raise SelinfError(
            "solver found no mixture but no marginal or facet condition is violated"
        )
    return FeasibilityResult(
        verdict=Verdict.INFEASIBLE,
        certificate=violations[0],
        all_violations=tuple(violations),
    )


def verify_witness(dist: HiddenStateDistribution, data: ExperimentData) -> bool:
    """True iff the push-forward of ``dist`` equals the data cell-by-cell."""
    predicted = predicted_tables(dist)
    return all(predicted.table(t) == data.table(t) for t in TREATMENTS)

"""Latent-model representability of four joint tables, decided exactly.

A deterministic hidden state fixes all four responses at once: A's answer at
a and at a', B's answer at b and at b'. There are 16 such states, each held
as its sign string such as "+-+-", and the mixtures over them are exactly the
models in which each response reads only its own factor plus a shared random
source. Whether observed tables admit such a mixture is a linear feasibility
question in the 16 weights. Its constant matrix is one table of the states that
fill each cell, which the push-forward and the witness check read too. Data
violating marginal selectivity fails it outright; the rest is decided here
with an exact phase-1 simplex. The answer is either a witness distribution
or a certificate (a marginal-selectivity inequality or a CHSH facet above 2,
read from the caller's reports of the same data) that provably excludes
every mixture. Fine's theorem guarantees that this fixed family, the four
marginal comparisons and the eight facets, each named by its sign pattern, is
complete for this design, and ``fine_criterion`` provides that closed form as
an independent cross-check. A witness holds phase 1's integers, and a facet is
tested on the CHSH report's integer sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from .chsh import SIGN_PATTERNS, ChshReport, compute_gamma
from .errors import InvalidValue, SelinfError
from .model import (
    ExperimentData,
    Rational,
    _Record,
    decode_signs,
    fraction_text,
    over_common_denominator,
    printable,
    rational,
)
from .selectivity import MarginalComparison, MarginalReport, check_marginal_selectivity
from .simplex import feasible_point


# The 16 deterministic states, written A(a) A(a') B(b) B(b') in "+"/"-", in
# lexicographic order with "+" first.
HIDDEN_STATES: tuple[str, ...] = tuple(map("".join, itertools.product("+-", repeat=4)))

# Per cell 4 k + c, the states that fill it, for treatment k = 2 (alpha at a') + (beta at b') and c in the
# order pp, pm, mp, mm: A gives the state's sign at its alpha level i, B the sign at 2 + its beta level j.
_CELL_STATES = tuple(
    tuple(s for s, state in enumerate(HIDDEN_STATES) if state[i] + state[2 + j] == a + b)
    for i, j, a, b in itertools.product((0, 1), (0, 1), "+-", "+-")
)


class HiddenStateDistribution(_Record):
    """Weights over the 16 states, summing to 1, held as ``scaled_weights``: each a ``Fraction`` built when read."""

    __slots__ = ("scaled_weights",)
    _fields = ("weights",)
    _canonical = ("scaled_weights",)
    scaled_weights: tuple[int, ...]

    def __init__(self, weights: tuple[Rational, ...]) -> None:
        ws = [w if isinstance(w, Fraction) else rational(w) for w in weights]
        if len(ws) != 16:
            raise InvalidValue(f"need 16 weights, got {len(ws)}")
        numerators, lcd = over_common_denominator(ws)
        self._hold(*numerators, lcd)

    def _hold(self, *scaled: int) -> "HiddenStateDistribution":  # the one place that sets and checks the weights
        *numerators, lcd = scaled
        if any(p < 0 for p in numerators):
            raise InvalidValue("weights must be nonnegative")
        if sum(numerators) != lcd:
            raise InvalidValue(f"weights sum to {printable(Fraction(sum(numerators), lcd))}, expected exactly 1")
        object.__setattr__(self, "scaled_weights", scaled)
        return self

    weights = property(lambda self: tuple(Fraction(p, self.scaled_weights[16]) for p in self.scaled_weights[:16]))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Rational]) -> "HiddenStateDistribution":
        """Build from {"+-+-": weight}, states written A(a)A(a')B(b)B(b'); missing states get 0."""
        ws = [Fraction(0)] * 16
        for state, weight in mapping.items():
            decode_signs(state, 4, "hidden state string")  # the 16 states are every such string
            ws[HIDDEN_STATES.index(state)] += rational(weight)
        return cls(tuple(ws))

    def nonzero_texts(self) -> Iterator[tuple[str, str]]:
        """Each state of nonzero weight and the weight as ``str`` of its ``Fraction``, written from the integers."""
        return ((s, fraction_text(p, self.scaled_weights[16])) for s, p in zip(HIDDEN_STATES, self.scaled_weights) if p)


def _push_forward(dist: HiddenStateDistribution) -> tuple[int, ...]:
    """The push-forward's 16 cells as integers over the weights' L, then L: each sums the states that fill it."""
    weights = dist.scaled_weights
    return (*(sum(weights[s] for s in states) for states in _CELL_STATES), weights[16])


def predicted_tables(dist: HiddenStateDistribution) -> ExperimentData:
    """Push the state distribution forward to one joint table per treatment, from the integer cells."""
    return ExperimentData.__new__(ExperimentData)._hold([_push_forward(dist)])


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
    lcd = chsh.scaled_expectations[4]  # each facet's sum v / L > 2 on integers, a Fraction built only for a violation
    violations += [FacetViolation(p, Fraction(v, lcd)) for p, v in zip(SIGN_PATTERNS, chsh.scaled_sums) if v > 2 * lcd]
    return violations


def fine_criterion(data: ExperimentData) -> bool:
    """Exact marginal selectivity and all eight CHSH facets at most 2."""
    return check_marginal_selectivity(data).satisfied and all(v <= 2 for v in compute_gamma(data).sums.values())


def solve_feasibility(
    data: ExperimentData, chsh: ChshReport, marginals: MarginalReport
) -> FeasibilityResult:
    """Decide exactly whether some hidden-state mixture reproduces the data.

    Data that violates marginal selectivity exactly (a comparison in
    ``marginals`` with a nonzero ``delta``, whatever its tolerance) fails the
    system's consistency conditions and is infeasible at once. Otherwise the
    verdict comes from the exact phase-1 simplex on the 16-weight system
    (the 16 cell equations plus normalization, reduced to the constants of
    ``selinf.simplex``). Its right-hand side, the cells then 1, is
    ``data.scaled_cells`` = L b, and phase 1 returns the integers L x of the
    witness x. Certificates are not read off the solver: they are the
    violated conditions in ``marginals`` and ``chsh``, the reports of the
    same data, which Fine's theorem makes complete for this design.
    """
    if marginals.max_delta == 0:
        found = feasible_point(data.scaled_cells)
        if found is not None:  # y = L x and L share no factor: it would divide L and each cell, a sum of y
            witness = HiddenStateDistribution.__new__(HiddenStateDistribution)._hold(*found, data.scaled_cells[16])
            return FeasibilityResult(witness=witness)
    violations = fine_violations(chsh, marginals)
    if not violations:
        raise SelinfError(
            "solver found no mixture but no marginal or facet condition is violated"
        )
    return FeasibilityResult(all_violations=tuple(violations))


def verify_witness(dist: HiddenStateDistribution, data: ExperimentData) -> bool:
    """True iff the push-forward of ``dist`` equals the data: each cell c / M == s / L, on integers c L == s M."""
    pushed, scaled = _push_forward(dist), data.scaled_cells
    return all(c * scaled[16] == s * pushed[16] for c, s in zip(pushed, scaled))

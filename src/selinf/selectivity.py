"""Marginal selectivity: exact checks and finite-sample significance tests.

If each response depends only on its own factor (plus shared randomness),
the distribution of A cannot move when beta's level changes, nor B's when
alpha's does. That gives four equalities of Pr(response = +1), one per
response per own-factor level, checked here exactly or within a tolerance,
and tested statistically with a two-sample pooled-proportion z-test when
per-treatment counts are available.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from .errors import InvalidValue, MissingCounts
from .model import (
    ALPHA_A,
    ALPHA_A_PRIME,
    BETA_B,
    BETA_B_PRIME,
    TREATMENTS,
    ExperimentData,
    FactorLevel,
    Level,
    Rational,
    Treatment,
    exceeds_common_denominator_cap,
    rational,
)


class Response(enum.Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True, slots=True)
class MarginalComparison:
    """Pr(response=+1) at a fixed own-factor level, across the other factor's levels.

    For response A at alpha level L: p_under_first is Pr(A=+1) under (L, b)
    and p_under_second under (L, b'); for response B at beta level L the
    roles of the factors swap. ``delta``, their absolute difference, is set once.
    """

    response: Response
    fixed_level: FactorLevel
    p_under_first: Fraction
    p_under_second: Fraction
    delta: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", abs(self.p_under_first - self.p_under_second))

    @property
    def treatments(self) -> tuple[Treatment, Treatment]:
        """The two treatments whose marginals are compared, in level order."""
        return _COMPARISON_SLOTS[(self.response, self.fixed_level)]

    def complements(self) -> tuple[Fraction, Fraction]:
        """Pr(response = -1) under both levels (the second listed alternative)."""
        return (1 - self.p_under_first, 1 - self.p_under_second)


# Fixed comparison order: A at a, A at a', B at b, B at b'; each with the treatments it compares.
_COMPARISON_SLOTS = {
    (Response.A, ALPHA_A): (TREATMENTS[0], TREATMENTS[1]),  # (a,b), (a,b')
    (Response.A, ALPHA_A_PRIME): (TREATMENTS[2], TREATMENTS[3]),  # (a',b), (a',b')
    (Response.B, BETA_B): (TREATMENTS[0], TREATMENTS[2]),  # (a,b), (a',b)
    (Response.B, BETA_B_PRIME): (TREATMENTS[1], TREATMENTS[3]),  # (a,b'), (a',b')
}


@dataclass(frozen=True, slots=True)
class MarginalReport:
    """All four marginal comparisons plus the satisfied/violated verdict."""

    comparisons: tuple[MarginalComparison, ...]
    tolerance: Fraction

    @property
    def max_delta(self) -> Fraction:
        return max(c.delta for c in self.comparisons)

    @property
    def satisfied(self) -> bool:
        return self.max_delta <= self.tolerance

    def comparison(self, response: Response, level: Level) -> MarginalComparison:
        for c in self.comparisons:
            if c.response is response and c.fixed_level.level is level:
                return c
        raise KeyError((response, level))


def check_marginal_selectivity(
    data: ExperimentData, tolerance: Rational = 0
) -> MarginalReport:
    """Compare Pr(response=+1) across the other factor's levels, all four ways.

    tolerance 0 is the exact check; a positive rational accepts deltas up to it.
    A tolerance whose numerator or denominator exceeds 10**2000 is rejected,
    as table cells are. Marginals are summed on ``data.scaled_cells``, the
    cells as integers over their common denominator.
    """
    tol = rational(tolerance)
    if exceeds_common_denominator_cap([tol]):  # checked first: the sign error prints tol
        raise InvalidValue("tolerance: numerator or denominator exceeds 10**2000")
    if tol < 0:
        raise InvalidValue(f"tolerance must be nonnegative, got {tol}")
    cells, lcd = data.scaled_cells, data.scaled_cells[16]
    # Pr(A=+1) = p_pp + p_pm and Pr(B=+1) = p_pp + p_mp per treatment, times L
    plus = {
        Response.A: [cells[k] + cells[k + 1] for k in range(0, 16, 4)],
        Response.B: [cells[k] + cells[k + 2] for k in range(0, 16, 4)],
    }
    as_fraction = {m: Fraction(m, lcd) for m in {*plus[Response.A], *plus[Response.B]}}  # once per distinct value
    comparisons = tuple(
        MarginalComparison(response, level, *(as_fraction[plus[response][t.index]] for t in pair))
        for (response, level), pair in _COMPARISON_SLOTS.items()
    )
    return MarginalReport(comparisons=comparisons, tolerance=tol)


def significance_level(alpha_sig: float) -> None:
    """Reject a significance level outside (0, 1)."""
    if not 0 < alpha_sig < 1:
        raise InvalidValue(f"alpha_sig must be in (0, 1), got {alpha_sig}")


@dataclass(frozen=True, slots=True)
class MsTestResult:
    """Two-sample pooled z-test of one marginal comparison."""

    comparison: MarginalComparison
    n_first: int
    n_second: int
    z_statistic: float
    p_value: float
    reject: bool
    alpha_sig: float
    degenerate: bool = False


def test_marginal_selectivity(
    data: ExperimentData,
    marginals: MarginalReport,
    alpha_sig: float = 0.05,
    bonferroni: bool = False,
) -> list[MsTestResult]:
    """Run the pooled two-proportion z-test on each of the four comparisons.

    Proportions come from ``marginals``, the report
    ``check_marginal_selectivity(data)`` gives; sample sizes from the
    attached counts (all four treatments must carry counts). Two-sided
    p-values from the standard normal. A pooled proportion of exactly 0 or 1
    is flagged degenerate: z is 0 when the two proportions agree, otherwise
    infinite in magnitude. ``bonferroni`` divides the significance level by
    the four comparisons made.
    """
    significance_level(alpha_sig)
    if not data.has_full_counts():
        raise MissingCounts("statistical test needs counts for all four treatments")
    alpha_eff = alpha_sig / 4 if bonferroni else alpha_sig
    results = []
    for comp in marginals.comparisons:
        n1, n2 = (data.count(t).n for t in comp.treatments)
        (a1, b1), (a2, b2) = comp.p_under_first.as_integer_ratio(), comp.p_under_second.as_integer_ratio()
        # p1 - p2 = diff / (b1 b2) and (p1 n1 + p2 n2) / (n1 + n2) = pooled / total; int / int rounds as float() does
        diff = a1 * b2 - a2 * b1
        pooled = a1 * b2 * n1 + a2 * b1 * n2
        total = b1 * b2 * (n1 + n2)
        degenerate = pooled == 0 or pooled == total
        if degenerate:
            z = 0.0 if diff == 0 else (math.inf if diff > 0 else -math.inf)
        else:
            se = math.sqrt(pooled * (total - pooled) / (total * total) * (1 / n1 + 1 / n2))
            z = diff / (b1 * b2) / se
        p_value = math.erfc(abs(z) / math.sqrt(2))
        results.append(
            MsTestResult(
                comparison=comp,
                n_first=n1,
                n_second=n2,
                z_statistic=z,
                p_value=p_value,
                reject=p_value < alpha_eff,
                alpha_sig=alpha_eff,
                degenerate=degenerate,
            )
        )
    return results

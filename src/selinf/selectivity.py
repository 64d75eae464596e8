"""Marginal selectivity: exact checks and finite-sample significance tests.

If each response depends only on its own factor (plus shared randomness),
the distribution of A cannot move when beta's level changes, nor B's when
alpha's does. That gives four equalities of Pr(response = +1), one per level
of a factor: at a and a' A is compared across b and b', at b and b' B across
a and a'. So the level names the comparison and fixes its response. They are
checked here exactly or within a tolerance, and tested statistically with a
two-sample pooled-proportion z-test when per-treatment counts are available.
"""

from __future__ import annotations

import math
from fractions import Fraction
from .errors import InvalidValue
from .model import (
    LEVELS,
    TREATMENTS,
    ExperimentData,
    Rational,
    Treatment,
    _Record,
    echo,
    exceeds_common_denominator_cap,
    printable,
    rational,
)


class MarginalComparison(_Record):
    """Pr(response=+1) at a fixed level, across the other factor's levels.

    At alpha's level L the response is A: p_under_first is Pr(A=+1) under
    (L, b) and p_under_second under (L, b'); at beta's level L the response
    is B and the roles of the factors swap. ``response``, "A" or "B", and
    ``delta``, the absolute difference, are set once; delta is
    |a1 b2 - a2 b1| / (b1 b2) on the two integer pairs a1/b1 and a2/b2.
    """

    __slots__ = ("fixed_level", "p_under_first", "p_under_second", "response", "delta")
    _fields = ("fixed_level", "p_under_first", "p_under_second")
    response: str
    delta: Fraction

    def __init__(self, fixed_level: str, p_under_first: Fraction, p_under_second: Fraction) -> None:
        object.__setattr__(self, "fixed_level", fixed_level)
        object.__setattr__(self, "p_under_first", p_under_first)
        object.__setattr__(self, "p_under_second", p_under_second)
        if fixed_level not in LEVELS:  # compared by ==, so any value gets this error
            raise InvalidValue(f"unknown level {echo(fixed_level)}, expected one of {', '.join(LEVELS)}")
        object.__setattr__(self, "response", "A" if fixed_level in LEVELS[:2] else "B")
        (a1, b1), (a2, b2) = p_under_first.as_integer_ratio(), p_under_second.as_integer_ratio()
        object.__setattr__(self, "delta", Fraction(abs(a1 * b2 - a2 * b1), b1 * b2))

    @property
    def treatments(self) -> tuple[Treatment, Treatment]:
        """The two treatments whose marginals are compared, in level order."""
        return _COMPARISON_SLOTS[self.fixed_level]

    def complements(self) -> tuple[Fraction, Fraction]:
        """Pr(response = -1) under both levels (the second listed alternative)."""
        return (1 - self.p_under_first, 1 - self.p_under_second)


# Fixed comparison order: A at a, A at a', B at b, B at b'; each level with the treatments it compares.
_COMPARISON_SLOTS = {
    "a": (TREATMENTS[0], TREATMENTS[1]),  # (a,b), (a,b')
    "a'": (TREATMENTS[2], TREATMENTS[3]),  # (a',b), (a',b')
    "b": (TREATMENTS[0], TREATMENTS[2]),  # (a,b), (a',b)
    "b'": (TREATMENTS[1], TREATMENTS[3]),  # (a,b'), (a',b')
}


class MarginalReport(_Record):
    """The four marginal comparisons, at a, a', b and b' in that order, plus the
    satisfied/violated verdict; ``max_delta`` is set once.

    The tolerance is nonnegative, and a tolerance whose numerator or
    denominator exceeds 10**2000 is rejected, as table cells are.
    """

    __slots__ = ("comparisons", "tolerance", "max_delta")
    _fields = ("comparisons", "tolerance")
    max_delta: Fraction

    def __init__(self, comparisons: tuple[MarginalComparison, ...], tolerance: Fraction) -> None:
        object.__setattr__(self, "comparisons", tuple(comparisons))
        object.__setattr__(self, "tolerance", tolerance)
        if tuple(c.fixed_level for c in self.comparisons) != LEVELS:
            levels = echo([c.fixed_level for c in self.comparisons])
            raise InvalidValue(f"comparisons must be at a, a', b, b' in that order, got {levels}")
        if exceeds_common_denominator_cap([tolerance]):  # checked first: the sign error prints it
            raise InvalidValue("tolerance: numerator or denominator exceeds 10**2000")
        if tolerance < 0:
            raise InvalidValue(f"tolerance must be nonnegative, got {printable(tolerance)}")
        object.__setattr__(self, "max_delta", max(c.delta for c in self.comparisons))

    @property
    def satisfied(self) -> bool:
        return self.max_delta <= self.tolerance


def check_marginal_selectivity(
    data: ExperimentData, tolerance: Rational = 0
) -> MarginalReport:
    """Compare Pr(response=+1) across the other factor's levels, all four ways.

    tolerance 0 is the exact check; a positive rational accepts deltas up to
    it, and ``MarginalReport`` checks it. Marginals are summed on
    ``data.scaled_cells``, the cells as integers over their common denominator.
    """
    cells, lcd = data.scaled_cells, data.scaled_cells[16]
    # Pr(A=+1) = p_pp + p_pm and Pr(B=+1) = p_pp + p_mp per treatment, times L; A is compared at a and a'
    plus_a = [cells[k] + cells[k + 1] for k in range(0, 16, 4)]
    plus_b = [cells[k] + cells[k + 2] for k in range(0, 16, 4)]
    as_fraction = {m: Fraction(m, lcd) for m in {*plus_a, *plus_b}}  # once per distinct value
    comparisons = tuple(
        MarginalComparison(level, *(as_fraction[plus[t.index]] for t in pair))
        for (level, pair), plus in zip(_COMPARISON_SLOTS.items(), (plus_a, plus_a, plus_b, plus_b))
    )
    return MarginalReport(comparisons=comparisons, tolerance=rational(tolerance))


def significance_level(alpha_sig: float) -> None:
    """Reject a significance level outside (0, 1)."""
    if not 0 < alpha_sig < 1:
        raise InvalidValue(f"alpha_sig must be in (0, 1), got {alpha_sig}")


class MsTestResult(_Record):
    """Two-sample pooled z-test of one marginal comparison, at significance level ``alpha_sig``.

    ``z_statistic``, its two-sided ``p_value`` from the standard normal,
    ``reject`` (p below ``alpha_sig``) and ``degenerate`` are derived once from
    the comparison's two proportions and sample sizes. A pooled proportion of
    exactly 0 or 1 is degenerate, with z = 0: both proportions are then 0, or
    both 1. Where the float pooled variance underflows to 0.0, z is the square
    root of the exact rational z^2.
    """

    __slots__ = ("comparison", "n_first", "n_second", "alpha_sig", "z_statistic", "p_value", "reject", "degenerate")
    _fields = ("comparison", "n_first", "n_second", "alpha_sig")
    z_statistic: float
    p_value: float
    reject: bool
    degenerate: bool

    def __init__(self, comparison: MarginalComparison, n_first: int, n_second: int, alpha_sig: float) -> None:
        object.__setattr__(self, "comparison", comparison)
        object.__setattr__(self, "n_first", n_first)
        object.__setattr__(self, "n_second", n_second)
        object.__setattr__(self, "alpha_sig", alpha_sig)
        significance_level(alpha_sig)
        if not all(type(n) is int and n > 0 for n in (n_first, n_second)):  # so not bool
            raise InvalidValue(f"sample sizes must be positive integers, got {echo(n_first)} and {echo(n_second)}")
        (a1, b1), (a2, b2) = comparison.p_under_first.as_integer_ratio(), comparison.p_under_second.as_integer_ratio()
        # p1 - p2 = diff / (b1 b2) and (p1 n1 + p2 n2) / (n1 + n2) = pooled / total; int / int rounds as float() does
        diff = a1 * b2 - a2 * b1
        pooled = a1 * b2 * n_first + a2 * b1 * n_second
        total = b1 * b2 * (n_first + n_second)
        degenerate = pooled == 0 or pooled == total
        z = 0.0
        if not degenerate:
            se = math.sqrt(pooled * (total - pooled) / (total * total) * (1 / n_first + 1 / n_second))
            if se > 0:
                z = diff / (b1 * b2) / se
            else:  # the pooled variance underflowed, so |z| is far below 1: its root from the exact z^2 = num / den
                num = diff * diff * total * total * n_first * n_second
                den = (b1 * b2) ** 2 * pooled * (total - pooled) * (n_first + n_second)
                shift = (den.bit_length() - num.bit_length() + 128) // 2  # so the root keeps 64 bits or more
                root = math.isqrt((num << 2 * shift) // den) / (1 << shift)
                z = root if diff > 0 else -root  # diff may be too large for a float, so copysign cannot take it
        object.__setattr__(self, "z_statistic", z)
        object.__setattr__(self, "p_value", math.erfc(abs(z) / math.sqrt(2)))
        object.__setattr__(self, "reject", self.p_value < alpha_sig)
        object.__setattr__(self, "degenerate", degenerate)


def test_marginal_selectivity(
    data: ExperimentData,
    marginals: MarginalReport,
    alpha_sig: float = 0.05,
    bonferroni: bool = False,
) -> list[MsTestResult]:
    """Run the pooled two-proportion z-test on each of the four comparisons.

    Proportions come from ``marginals``, the report
    ``check_marginal_selectivity(data)`` gives; sample sizes from the
    attached counts (all four treatments must carry counts). ``bonferroni``
    divides the significance level by the four comparisons made.
    """
    significance_level(alpha_sig)
    if not data.has_full_counts():
        raise InvalidValue("statistical test needs counts for all four treatments")
    alpha_eff = alpha_sig / 4 if bonferroni else alpha_sig
    return [MsTestResult(c, *(data.count(t).n for t in c.treatments), alpha_eff) for c in marginals.comparisons]

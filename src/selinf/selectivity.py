"""Marginal selectivity: exact checks and finite-sample significance tests.

If each response depends only on its own factor (plus shared randomness),
the distribution of A cannot move when beta's level changes, nor B's when
alpha's does: four equalities of Pr(response = +1), one per level of a factor
(A at a and a' across b and b', B at b and b' across a and a'), so the level
names the comparison. They are checked exactly or within a tolerance on the
marginals as integers over one denominator, with ``Fraction``s built only when
read, and tested by a pooled two-proportion z-test when counts are available.
"""

from __future__ import annotations

import math
from fractions import Fraction
from .errors import InvalidValue
from .model import (
    LEVELS,
    MAX_COMMON_DENOMINATOR,
    TREATMENTS,
    ExperimentData,
    Rational,
    Treatment,
    _Record,
    echo,
    integer_ratio,
    over_common_denominator,
    printable,
)


class MarginalComparison(_Record):
    """Pr(response=+1) at a fixed level, across the other factor's levels.

    At alpha's level L the response is A: p_under_first is Pr(A=+1) under
    (L, b) and p_under_second under (L, b'); at beta's level L the response
    is B and the roles of the factors swap. ``response``, "A" or "B", is set
    once. The two are held as ``scaled_marginals``, a1, a2 and L in lowest
    terms; they and ``delta`` = |a1 - a2| / L are ``Fraction``s built when read.
    """

    __slots__ = ("fixed_level", "scaled_marginals", "response")
    _fields = ("fixed_level", "p_under_first", "p_under_second")
    _canonical = ("fixed_level", "scaled_marginals")
    scaled_marginals: tuple[int, int, int]
    response: str

    def __init__(self, fixed_level: str, p_under_first: Rational, p_under_second: Rational) -> None:
        if fixed_level not in LEVELS:  # compared by ==, so any value gets this error
            raise InvalidValue(f"unknown level {echo(fixed_level)}, expected one of {', '.join(LEVELS)}")
        (a1, a2), lcd = over_common_denominator((p_under_first, p_under_second))
        for name, p in zip(self._fields[1:], (a1, a2)):
            if not 0 <= p <= lcd:
                raise InvalidValue(f"{name} = {printable(Fraction(p, lcd))} outside [0, 1]")
        self._hold(fixed_level, a1, a2, lcd)

    def _hold(self, fixed_level: str, a1: int, a2: int, lcd: int) -> "MarginalComparison":  # the one place that sets it
        g = math.gcd(a1, a2, lcd)
        object.__setattr__(self, "fixed_level", fixed_level)
        object.__setattr__(self, "scaled_marginals", (a1 // g, a2 // g, lcd // g))
        object.__setattr__(self, "response", "A" if fixed_level in LEVELS[:2] else "B")
        return self

    p_under_first = property(lambda self: Fraction(self.scaled_marginals[0], self.scaled_marginals[2]))
    p_under_second = property(lambda self: Fraction(self.scaled_marginals[1], self.scaled_marginals[2]))

    @property
    def delta(self) -> Fraction:
        a1, a2, lcd = self.scaled_marginals
        return Fraction(abs(a1 - a2), lcd)

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
    satisfied/violated verdict, which cross-multiplies two integer pairs set once:
    ``scaled_tolerance`` and ``scaled_max_delta``, read as ``Fraction``s by
    ``tolerance`` and ``max_delta``. The tolerance, read by ``integer_ratio``, is
    nonnegative, and one whose numerator or denominator exceeds 10**2000 is
    rejected, as table cells are.
    """

    __slots__ = ("comparisons", "scaled_tolerance", "scaled_max_delta")
    _fields = ("comparisons", "tolerance")
    _canonical = ("comparisons", "scaled_tolerance")
    scaled_tolerance: tuple[int, int]
    scaled_max_delta: tuple[int, int]

    def __init__(self, comparisons: tuple[MarginalComparison, ...], tolerance: Rational) -> None:
        object.__setattr__(self, "comparisons", tuple(comparisons))
        if tuple(c.fixed_level for c in self.comparisons) != LEVELS:
            levels = echo([c.fixed_level for c in self.comparisons])
            raise InvalidValue(f"comparisons must be at a, a', b, b' in that order, got {levels}")
        p, q = integer_ratio(tolerance)
        if max(q, abs(p)) > MAX_COMMON_DENOMINATOR:  # checked first: the sign error prints it
            raise InvalidValue("tolerance: numerator or denominator exceeds 10**2000")
        if p < 0:
            raise InvalidValue(f"tolerance must be nonnegative, got {printable(Fraction(p, q))}")
        object.__setattr__(self, "scaled_tolerance", (p, q))
        scaled = [c.scaled_marginals for c in self.comparisons]  # the deltas over their least common denominator
        lcd = math.lcm(*[s for _, _, s in scaled])
        object.__setattr__(self, "scaled_max_delta", (max([abs(a1 - a2) * (lcd // s) for a1, a2, s in scaled]), lcd))

    tolerance = property(lambda self: Fraction(*self.scaled_tolerance))
    max_delta = property(lambda self: Fraction(*self.scaled_max_delta))

    @property
    def satisfied(self) -> bool:
        (d, lcd), (p, q) = self.scaled_max_delta, self.scaled_tolerance
        return d * q <= p * lcd


def check_marginal_selectivity(
    data: ExperimentData, tolerance: Rational = 0
) -> MarginalReport:
    """Compare Pr(response=+1) across the other factor's levels, all four ways.

    tolerance 0 is the exact check; a positive rational accepts deltas up to
    it, and ``MarginalReport`` checks it. Marginals are summed on
    ``data.scaled_cells``: a comparison holds two sums and L, reduced by one gcd.
    """
    cells, lcd = data.scaled_cells, data.scaled_cells[16]
    # Pr(A=+1) = p_pp + p_pm and Pr(B=+1) = p_pp + p_mp per treatment, times L; A is compared at a and a'
    plus_a = [cells[k] + cells[k + 1] for k in range(0, 16, 4)]
    plus_b = [cells[k] + cells[k + 2] for k in range(0, 16, 4)]
    comparisons = [
        MarginalComparison.__new__(MarginalComparison)._hold(level, plus[first.index], plus[second.index], lcd)
        for (level, (first, second)), plus in zip(_COMPARISON_SLOTS.items(), (plus_a, plus_a, plus_b, plus_b))
    ]
    return MarginalReport(comparisons, tolerance)


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
        a1, a2, lcd = comparison.scaled_marginals
        g1, g2 = math.gcd(a1, lcd), math.gcd(a2, lcd)  # each proportion in lowest terms: the underflow root reads them
        a1, b1, a2, b2 = a1 // g1, lcd // g1, a2 // g2, lcd // g2
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

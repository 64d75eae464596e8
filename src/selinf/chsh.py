"""CHSH statistic over the eight odd-plus sign patterns, with bound classification.

The statistic is the maximum of the signed sums s1*E_ab + s2*E_ab' + s3*E_a'b
+ s4*E_a'b' over sign vectors with an odd number of plus signs. A pattern is
its string of signs, such as "+++-", and a classification is its name. Any
model in which each response depends only on its own factor and shared
randomness keeps the statistic at or below 2; quantum models reach
2*sqrt(2); the algebraic ceiling is 4. Comparisons against 2*sqrt(2) are
done as gamma^2 vs 8 in exact integers.

``compute_gamma`` reads the 16 cells as integers over their least common
denominator from ``ExperimentData.scaled_cells``, takes the four expectations
on them and reduces them by one gcd. ``ChshReport`` holds those integers over
their one denominator L and the eight sums over the same L; it picks gamma's
patterns and its class by comparing integers once, and builds an expectation,
a sum or gamma as a ``Fraction`` only when it is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import InvalidValue
from .model import TREATMENTS, ExperimentData, Treatment, _Record, over_common_denominator, printable

# The signs on (E_ab, E_ab', E_a'b, E_a'b') with an odd number of plus signs, in lexicographic order with "+" first.
# Each has one sign unlike its other three, at i, so its sum is k (S - 2 E_i): S sums the E, k = -1 for a lone "+".
SIGN_PATTERNS = ("+++-", "++-+", "+-++", "+---", "-+++", "-+--", "--+-", "---+")
_LONE_SIGNS = tuple((p.index("-"), 1) if p.count("-") == 1 else (p.index("+"), -1) for p in SIGN_PATTERNS)


def classify_gamma(p: Union[int, Fraction], q: int = 1) -> str:
    """The class of gamma = p/q, q > 0, or of p = gamma, exactly: p vs 2q, then p^2 vs 8q^2 for 2*sqrt(2)."""
    if p <= 2 * q:
        return "classical-bound-satisfied"
    if p * p <= 8 * q * q:
        return "quantum-region"
    return "supra-quantum"


class ChshReport(_Record):
    """Per-treatment expectations in [-1, 1], held as ``scaled_expectations``: numerators over their least L, then L.
    The eight signed sums over L (``scaled_sums``), the patterns attaining their maximum gamma, both in ``SIGN_PATTERNS``
    order, and its class are derived once; ``expectations``, ``sums`` and ``gamma`` are ``Fraction``s built when read."""

    __slots__ = ("scaled_expectations", "scaled_sums", "argmax_patterns", "classification")
    _fields = ("expectations",)
    _canonical = ("scaled_expectations",)
    scaled_expectations: tuple[int, int, int, int, int]
    scaled_sums: tuple[int, ...]
    argmax_patterns: tuple[str, ...]
    classification: str

    def __init__(self, expectations: Mapping[Treatment, Fraction]) -> None:
        values, lcd = over_common_denominator(expectations[t] for t in TREATMENTS)
        for t, v in zip(TREATMENTS, values):
            if abs(v) > lcd:
                raise InvalidValue(f"expectation E[A*B | {t.key}] = {printable(expectations[t])} outside [-1, 1]")
        self._hold(*values, lcd)

    def _hold(self, *scaled: int) -> "ChshReport":  # the one place that sets the integers: in range by __init__ or data
        total = scaled[0] + scaled[1] + scaled[2] + scaled[3]
        sums = tuple([k * (total - 2 * scaled[i]) for i, k in _LONE_SIGNS])
        top = max(sums)
        object.__setattr__(self, "scaled_expectations", scaled)
        object.__setattr__(self, "scaled_sums", sums)
        object.__setattr__(self, "argmax_patterns", tuple(p for p, v in zip(SIGN_PATTERNS, sums) if v == top))
        object.__setattr__(self, "classification", classify_gamma(top, scaled[4]))
        return self

    def _read(self, keys: tuple, numerators: Iterable[int]) -> dict:  # each numerator over L, a Fraction built now
        return {k: Fraction(v, self.scaled_expectations[4]) for k, v in zip(keys, numerators)}

    expectations = property(lambda self: self._read(TREATMENTS, self.scaled_expectations))
    sums = property(lambda self: self._read(SIGN_PATTERNS, self.scaled_sums))
    gamma = property(lambda self: Fraction(max(self.scaled_sums), self.scaled_expectations[4]))

    def gamma_decimal(self) -> str:
        """Gamma rounded half-up to three decimal places, as a string."""
        p, q = max(self.scaled_sums), self.scaled_expectations[4]
        scaled = (2000 * p + q) // (2 * q)  # floor(gamma * 1000 + 1/2)
        return f"{scaled // 1000}.{scaled % 1000:03d}"


def compute_gamma(data: ExperimentData) -> ChshReport:
    """The CHSH report of the data: E[A*B] = p_pp - p_pm - p_mp + p_mm per treatment, on the cells over L."""
    cells = data.scaled_cells
    values = [cells[k] - cells[k + 1] - cells[k + 2] + cells[k + 3] for k in range(0, 16, 4)]
    g = math.gcd(*values, cells[16])
    return ChshReport.__new__(ChshReport)._hold(*(v // g for v in values), cells[16] // g)

"""CHSH statistic over the eight odd-plus sign patterns, with bound classification.

The statistic is the maximum of the signed sums s1*E_ab + s2*E_ab' + s3*E_a'b
+ s4*E_a'b' over sign vectors with an odd number of plus signs. A pattern is
its string of signs, such as "+++-", and a classification is its name. Any
model in which each response depends only on its own factor and shared
randomness keeps the statistic at or below 2; quantum models reach
2*sqrt(2); the algebraic ceiling is 4. Comparisons against 2*sqrt(2) are
done as gamma^2 vs 8 in exact integers.

``compute_gamma`` reads the 16 cells as integers over their least common
denominator L from ``ExperimentData.scaled_cells`` and builds the four
expectations. ``ChshReport`` derives the rest from them once: it puts them
over their own common denominator, checks each is in [-1, 1], picks gamma
and its achievers by comparing integer sums, and builds each sum as a
``Fraction`` once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InvalidValue
from .model import TREATMENTS, ExperimentData, Treatment, _Record, over_common_denominator, printable

# The signs on (E_ab, E_ab', E_a'b, E_a'b') with an odd number of plus signs,
# in lexicographic order with "+" first, each with its signs as +1/-1.
SIGN_PATTERNS = ("+++-", "++-+", "+-++", "+---", "-+++", "-+--", "--+-", "---+")
_PATTERN_SIGNS = {p: tuple(1 if ch == "+" else -1 for ch in p) for p in SIGN_PATTERNS}


def classify_gamma(gamma: Fraction) -> str:
    """Exact classification on gamma's integer pair p/q: p vs 2q, then p^2 vs 8q^2 for 2*sqrt(2)."""
    p, q = gamma.as_integer_ratio()
    if p <= 2 * q:
        return "classical-bound-satisfied"
    if p * p <= 8 * q * q:
        return "quantum-region"
    return "supra-quantum"


class ChshReport(_Record):
    """Per-treatment expectations, each in [-1, 1]; all eight signed sums, their maximum
    gamma, the patterns attaining it (in ``SIGN_PATTERNS`` order) and its classification
    are derived from them once."""

    __slots__ = ("expectations", "sums", "gamma", "argmax_patterns", "classification")
    _fields = ("expectations",)
    sums: dict[str, Fraction]
    gamma: Fraction
    argmax_patterns: tuple[str, ...]
    classification: str

    def __init__(self, expectations: Mapping[Treatment, Fraction]) -> None:
        object.__setattr__(self, "expectations", expectations)
        values, lcd = over_common_denominator(expectations[t] for t in TREATMENTS)
        for t, v in zip(TREATMENTS, values):
            if abs(v) > lcd:
                raise InvalidValue(f"expectation E[A*B | {t.key}] = {printable(expectations[t])} outside [-1, 1]")
        sums = {p: sum(s * e for s, e in zip(signs, values)) for p, signs in _PATTERN_SIGNS.items()}
        top = max(sums.values())
        argmax = tuple(p for p, v in sums.items() if v == top)
        object.__setattr__(self, "sums", {p: Fraction(v, lcd) for p, v in sums.items()})
        object.__setattr__(self, "gamma", self.sums[argmax[0]])
        object.__setattr__(self, "argmax_patterns", argmax)
        object.__setattr__(self, "classification", classify_gamma(self.gamma))

    def gamma_decimal(self) -> str:
        """Gamma rounded half-up to three decimal places, as a string."""
        p, q = self.gamma.as_integer_ratio()
        scaled = (2000 * p + q) // (2 * q)  # floor(gamma * 1000 + 1/2)
        return f"{scaled // 1000}.{scaled % 1000:03d}"


def compute_gamma(data: ExperimentData) -> ChshReport:
    """The CHSH report of the data, from its four expectations E[A*B]."""
    cells, lcd = data.scaled_cells, data.scaled_cells[16]
    # E[A*B] = p_pp - p_pm - p_mp + p_mm per treatment, times L
    values = (cells[k] - cells[k + 1] - cells[k + 2] + cells[k + 3] for k in range(0, 16, 4))
    return ChshReport({t: Fraction(e, lcd) for t, e in zip(TREATMENTS, values)})

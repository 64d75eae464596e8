"""CHSH statistic over the eight odd-plus sign patterns, with bound classification.

The statistic is the maximum of the signed sums s1*E_ab + s2*E_ab' + s3*E_a'b
+ s4*E_a'b' over sign vectors with an odd number of plus signs. Any model in
which each response depends only on its own factor and shared randomness keeps
it at or below 2; quantum models reach 2*sqrt(2); the algebraic ceiling is 4.
Comparisons against 2*sqrt(2) are done as gamma^2 vs 8 in exact rationals.

``compute_gamma`` reads the 16 cells as integers over their least common
denominator L from ``ExperimentData.scaled_cells`` and builds the four
expectations. ``ChshReport`` derives the rest from them once: it puts them
over their own common denominator, picks gamma and its achievers by comparing
integer sums, and builds each sum as a ``Fraction`` once.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Mapping

from .errors import InvalidPattern
from .model import TREATMENTS, ExperimentData, Treatment, _Record, encode_signs, over_common_denominator


class SignPattern(_Record):
    """Signs applied to (E_ab, E_ab', E_a'b, E_a'b'); the plus count must be odd."""

    __slots__ = ("signs", "key")
    _fields = ("signs",)
    key: str

    def __init__(self, signs: tuple[int, int, int, int]) -> None:
        signs = tuple(signs)
        if len(signs) != 4 or any(s not in (1, -1) for s in signs):
            raise InvalidPattern(f"signs must be four values in {{+1, -1}}, got {signs!r}")
        if sum(s == 1 for s in signs) % 2 == 0:
            raise InvalidPattern(f"pattern {signs!r} has an even number of plus signs")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "key", encode_signs(signs))

    def __hash__(self) -> int:
        return hash((self.signs,))

    def __str__(self) -> str:
        return self.key


# All valid patterns, in lexicographic order over sign tuples with +1 before -1.
SIGN_PATTERNS: tuple[SignPattern, ...] = tuple(
    SignPattern(signs)
    for signs in itertools.product((1, -1), repeat=4)
    if sum(s == 1 for s in signs) % 2 == 1
)


class BoundClassification(enum.Enum):
    CLASSICAL_BOUND_SATISFIED = "classical-bound-satisfied"  # gamma <= 2
    QUANTUM_REGION = "quantum-region"  # 2 < gamma <= 2*sqrt(2)
    SUPRA_QUANTUM = "supra-quantum"  # gamma > 2*sqrt(2)


def classify_gamma(gamma: Fraction) -> BoundClassification:
    """Exact classification; the 2*sqrt(2) comparison is gamma^2 vs 8."""
    if gamma <= 2:
        return BoundClassification.CLASSICAL_BOUND_SATISFIED
    if gamma * gamma <= 8:
        return BoundClassification.QUANTUM_REGION
    return BoundClassification.SUPRA_QUANTUM


class ChshReport(_Record):
    """Per-treatment expectations; all eight signed sums, their maximum gamma, the
    patterns attaining it and its classification are derived from them once."""

    __slots__ = ("expectations", "sums", "gamma", "argmax_patterns", "classification")
    _fields = ("expectations",)
    sums: dict[SignPattern, Fraction]
    gamma: Fraction
    argmax_patterns: frozenset[SignPattern]
    classification: BoundClassification

    def __init__(self, expectations: Mapping[Treatment, Fraction]) -> None:
        object.__setattr__(self, "expectations", expectations)
        values, lcd = over_common_denominator(expectations[t] for t in TREATMENTS)
        sums = {p: sum(s * e for s, e in zip(p.signs, values)) for p in SIGN_PATTERNS}
        top = max(sums.values())
        argmax = [p for p, v in sums.items() if v == top]
        object.__setattr__(self, "sums", {p: Fraction(v, lcd) for p, v in sums.items()})
        object.__setattr__(self, "gamma", self.sums[argmax[0]])
        object.__setattr__(self, "argmax_patterns", frozenset(argmax))
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

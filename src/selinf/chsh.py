"""CHSH statistic over the eight odd-plus sign patterns, with bound classification.

The statistic is the maximum of the signed sums s1*E_ab + s2*E_ab' + s3*E_a'b
+ s4*E_a'b' over sign vectors with an odd number of plus signs. Any model in
which each response depends only on its own factor and shared randomness keeps
it at or below 2; quantum models reach 2*sqrt(2); the algebraic ceiling is 4.
Comparisons against 2*sqrt(2) are done as gamma^2 vs 8 in exact rationals.

``compute_gamma`` reads the 16 cells as integers over their least common
denominator L from ``ExperimentData.scaled_cells``, picks gamma and its
achievers by comparing integer sums, and builds each expectation and sum as a
``Fraction`` once, for the report.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import InvalidPattern
from .model import TREATMENTS, ExperimentData, Treatment, decode_signs, encode_signs


@dataclass(frozen=True)
class SignPattern:
    """Signs applied to (E_ab, E_ab', E_a'b, E_a'b'); the plus count must be odd."""

    signs: tuple[int, int, int, int]
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        signs = tuple(self.signs)
        if len(signs) != 4 or any(s not in (1, -1) for s in signs):
            raise InvalidPattern(f"signs must be four values in {{+1, -1}}, got {signs!r}")
        if sum(s == 1 for s in signs) % 2 == 0:
            raise InvalidPattern(f"pattern {signs!r} has an even number of plus signs")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "key", encode_signs(signs))

    @classmethod
    def from_string(cls, text: str) -> "SignPattern":
        return cls(decode_signs(text, 4, "pattern string", InvalidPattern))

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


@dataclass(frozen=True, slots=True)
class ChshReport:
    """Per-treatment expectations, all eight signed sums, and their maximum."""

    expectations: Mapping[Treatment, Fraction]
    sums: Mapping[SignPattern, Fraction]
    gamma: Fraction
    argmax_patterns: frozenset[SignPattern]
    classification: BoundClassification

    def gamma_decimal(self) -> str:
        """Gamma rounded half-up to three decimal places, as a string."""
        p, q = self.gamma.as_integer_ratio()
        scaled = (2000 * p + q) // (2 * q)  # floor(gamma * 1000 + 1/2)
        return f"{scaled // 1000}.{scaled % 1000:03d}"


def compute_gamma(data: ExperimentData) -> ChshReport:
    """Evaluate all eight signed sums and report the maximum with its achievers."""
    cells, lcd = data.scaled_cells, data.scaled_cells[16]
    # E[A*B] = p_pp - p_pm - p_mp + p_mm per treatment, times L
    values = [cells[k] - cells[k + 1] - cells[k + 2] + cells[k + 3] for k in range(0, 16, 4)]
    sums = {p: sum(s * e for s, e in zip(p.signs, values)) for p in SIGN_PATTERNS}
    top = max(sums.values())
    argmax = [p for p, v in sums.items() if v == top]
    fractions = {p: Fraction(v, lcd) for p, v in sums.items()}
    gamma = fractions[argmax[0]]
    return ChshReport(
        expectations={t: Fraction(e, lcd) for t, e in zip(TREATMENTS, values)},
        sums=fractions,
        gamma=gamma,
        argmax_patterns=frozenset(argmax),
        classification=classify_gamma(gamma),
    )

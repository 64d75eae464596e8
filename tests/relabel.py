"""Relabelings, mixtures and single facet values of experiments, for the tests.

Recoding a response or exchanging a factor's two levels permutes the tables
and signed sums in a known way, and mixing two experiments is affine cell by
cell; the invariance and convexity tests check the program against these.
One facet's signed sum, computed on its own, checks the certificates. The
per-table expectations and marginals, uniform tables and distributions, and
the other small helpers below are computed here on ``Fraction``s, apart from
the integer routes the program takes.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional

from typing import Iterable

from selinf.chsh import SignPattern
from selinf.feasibility import GeneralRepresentation, HiddenState, HiddenStateDistribution
from selinf.model import (
    CELLS,
    FACTOR_LEVELS,
    TREATMENTS,
    ExperimentData,
    Factor,
    JointTable,
    LabelSet,
    Level,
    Rational,
    Treatment,
    rational,
)
from selinf.simulate import SplitMix64


def uniform_table() -> JointTable:
    q = Fraction(1, 4)
    return JointTable(q, q, q, q)


def expectation(table: JointTable) -> Fraction:
    """E[A*B] = p_pp - p_pm - p_mp + p_mm."""
    return table.p_pp - table.p_pm - table.p_mp + table.p_mm


def pr_a_plus(table: JointTable) -> Fraction:
    return table.p_pp + table.p_pm


def pr_b_plus(table: JointTable) -> Fraction:
    return table.p_pp + table.p_mp


def uniform_distribution() -> HiddenStateDistribution:
    return HiddenStateDistribution((Fraction(1, 16),) * 16)


def point_mass_distribution(state: HiddenState) -> HiddenStateDistribution:
    ws = [Fraction(0)] * 16
    ws[state.index] = Fraction(1)
    return HiddenStateDistribution(tuple(ws))


def weight(dist: HiddenStateDistribution, state: HiddenState) -> Fraction:
    return dist.weights[state.index]


def mix_distributions(
    first: HiddenStateDistribution, second: HiddenStateDistribution, lam: Rational
) -> HiddenStateDistribution:
    """State-wise convex combination lam*first + (1-lam)*second."""
    lam = rational(lam)
    return HiddenStateDistribution(tuple(lam * a + (1 - lam) * b for a, b in zip(first.weights, second.weights)))


def sign_pattern(s1: int, s2: int, s3: int, s4: int) -> SignPattern:
    return SignPattern((s1, s2, s3, s4))


def negated(pattern: SignPattern) -> SignPattern:
    return SignPattern(tuple(-s for s in pattern.signs))


def signed_sum(pattern: SignPattern, expectations: Iterable[Fraction]) -> Fraction:
    """s1*E_ab + s2*E_ab' + s3*E_a'b + s4*E_a'b' over expectations in treatment order."""
    return sum((s * e for s, e in zip(pattern.signs, expectations)), Fraction(0))


def chsh_facet_value(data: ExperimentData, pattern: SignPattern) -> Fraction:
    """The signed sum of the four product expectations for one pattern."""
    return signed_sum(pattern, (expectation(data.table(t)) for t in TREATMENTS))


def reconstructed_tables(rep: GeneralRepresentation) -> ExperimentData:
    """Marginalize each treatment's coordinate of the representation back to a joint table."""
    cells = [dict.fromkeys(CELLS, Fraction(0)) for _ in TREATMENTS]
    for tup, w in rep.weights.items():
        for k, pair in enumerate(tup):
            cells[k][pair] += w
    return ExperimentData(tables={t: JointTable(*(c[pair] for pair in CELLS)) for t, c in zip(TREATMENTS, cells)})


def next_53bits(gen: SplitMix64) -> int:
    return gen.next_uint64() >> 11


def flip_a(table):
    """Swap the A=+1 / A=-1 rows of a joint or count table (recode A)."""
    pp, pm, mp, mm = table.cells()
    return type(table)(mp, mm, pp, pm)


def flip_b(table):
    """Swap the B=+1 / B=-1 columns of a joint or count table (recode B)."""
    pp, pm, mp, mm = table.cells()
    return type(table)(pm, pp, mm, mp)


def mix_experiments(first: ExperimentData, second: ExperimentData, lam: Rational) -> ExperimentData:
    """Treatment-wise convex combination lam*first + (1-lam)*second of the tables."""
    return ExperimentData(
        tables={t: first.table(t).mix(second.table(t), lam) for t in TREATMENTS}
    )


def _rebuild(data: ExperimentData, move, labels: Optional[LabelSet]) -> ExperimentData:
    """``data`` with every joint and count table moved by ``move(t, table) -> (t', table')``."""
    counts = None
    if data.counts is not None:
        counts = dict(move(t, ct) for t, ct in data.counts.items())
    return ExperimentData(
        tables=dict(move(t, data.table(t)) for t in TREATMENTS),
        counts=counts,
        labels=labels,
        independent_counts=data.independent_counts,
    )


def _flip_coding(data: ExperimentData, factor: Factor, level: Optional[Level]) -> ExperimentData:
    """Recode the response read at ``factor`` (+1 <-> -1) at one level, or at both when None."""
    keys = {lv.key for lv in FACTOR_LEVELS if lv.factor is factor and level in (None, lv.level)}
    flip = flip_a if factor is Factor.ALPHA else flip_b

    def move(t: Treatment, table):
        hit = getattr(t, factor.value).key in keys
        return t, (flip(table) if hit else table)

    labels = data.labels
    if labels is not None and labels.responses is not None:
        responses = {
            key: (pair[1], pair[0]) if key in keys else pair
            for key, pair in labels.responses.items()
        }
        labels = LabelSet(labels.factors, labels.levels, responses)
    return _rebuild(data, move, labels)


def flip_a_coding(data: ExperimentData, level: Optional[Level] = None) -> ExperimentData:
    """Recode A (+1 <-> -1) at one alpha level, or at both when level is None."""
    return _flip_coding(data, Factor.ALPHA, level)


def flip_b_coding(data: ExperimentData, level: Optional[Level] = None) -> ExperimentData:
    """Recode B (+1 <-> -1) at one beta level, or at both when level is None."""
    return _flip_coding(data, Factor.BETA, level)


def _swap_level_labels(labels: Optional[LabelSet], first_key: str, second_key: str) -> Optional[LabelSet]:
    if labels is None:
        return None
    swapped = []
    for mapping in (labels.levels, labels.responses):
        if mapping is not None:
            mapping = dict(mapping)
            mapping[first_key], mapping[second_key] = (
                mapping.get(second_key),
                mapping.get(first_key),
            )
            mapping = {k: v for k, v in mapping.items() if v is not None}
        swapped.append(mapping)
    return LabelSet(labels.factors, *swapped)


def _swap_levels(data: ExperimentData, factor: Factor) -> ExperimentData:
    """Exchange the roles of the two levels of ``factor``."""
    first, second = (lv for lv in FACTOR_LEVELS if lv.factor is factor)
    other = {first: second, second: first}

    def move(t: Treatment, table):
        return replace(t, **{factor.value: other[getattr(t, factor.value)]}), table

    return _rebuild(data, move, _swap_level_labels(data.labels, first.key, second.key))


def swap_alpha_levels(data: ExperimentData) -> ExperimentData:
    """Exchange the roles of a and a' (relabel the alpha factor's levels)."""
    return _swap_levels(data, Factor.ALPHA)


def swap_beta_levels(data: ExperimentData) -> ExperimentData:
    """Exchange the roles of b and b' (relabel the beta factor's levels)."""
    return _swap_levels(data, Factor.BETA)

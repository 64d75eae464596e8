"""Relabelings, mixtures and single facet values of experiments, for the tests.

Recoding a response or exchanging a factor's two levels permutes the tables
and signed sums in a known way, and mixing two experiments is affine cell by
cell; the invariance and convexity tests check the program against these.
One facet's signed sum, computed on its own from the pattern's string, checks
the certificates. The product measure over per-treatment outcome pairs is the
unrestricted representation, in which both responses may read both factors,
that every experiment has. The hidden states' responses and push-forward,
point-mass tables and their mix, the per-table expectations and marginals, a
report's comparison by response and level, uniform tables and distributions,
and the other small helpers below are computed here on ``Fraction``s from
the states' sign strings, apart from the integer routes the program takes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from selinf.feasibility import HiddenStateDistribution
from selinf.model import (
    CELLS,
    TREATMENTS,
    ExperimentData,
    JointTable,
    LabelSet,
    Rational,
    Treatment,
    rational,
)
from selinf.selectivity import MarginalComparison, MarginalReport
from selinf.simulate import SplitMix64


# Hidden states A(a) A(a') B(b) B(b'), "+" before "-".
STATES = tuple("".join(s) for s in itertools.product("+-", repeat=4))


def state_response(state: str, treatment: Treatment) -> tuple[int, int]:
    """The (A, B) outcome a hidden state produces: A reads its own alpha level, B its beta level."""
    a = state[treatment.alpha == "a'"]
    b = state[2 + (treatment.beta == "b'")]
    return (1 if a == "+" else -1, 1 if b == "+" else -1)


def push_forward(dist: HiddenStateDistribution) -> ExperimentData:
    """The tables a state distribution produces, summed as ``Fraction``s state by state."""
    cells = [dict.fromkeys(CELLS, Fraction(0)) for _ in TREATMENTS]
    for state, w in zip(STATES, dist.weights):
        for k, t in enumerate(TREATMENTS):
            cells[k][state_response(state, t)] += w
    return ExperimentData(tables={t: JointTable(*(c[pair] for pair in CELLS)) for t, c in zip(TREATMENTS, cells)})


def point_mass_table(a: int, b: int) -> JointTable:
    """The table that puts all mass on the outcome pair (a, b)."""
    return JointTable(*(Fraction(int((a, b) == pair)) for pair in CELLS))


def mix_tables(first: JointTable, second: JointTable, lam: Rational) -> JointTable:
    """Cell-wise convex combination lam*first + (1-lam)*second."""
    lam = rational(lam)
    return JointTable(*(lam * x + (1 - lam) * y for x, y in zip(first.cells(), second.cells())))


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


def comparison(report: MarginalReport, level: str) -> MarginalComparison:
    """The report's comparison at ``level``: of A at "a" or "a'", of B at "b" or "b'"."""
    for c in report.comparisons:
        if c.fixed_level == level:
            return c
    raise KeyError(level)


def uniform_distribution() -> HiddenStateDistribution:
    return HiddenStateDistribution((Fraction(1, 16),) * 16)


def point_mass_distribution(state: str) -> HiddenStateDistribution:
    return HiddenStateDistribution(tuple(Fraction(int(s == state)) for s in STATES))


def weight(dist: HiddenStateDistribution, state: str) -> Fraction:
    return dist.weights[STATES.index(state)]


def mix_distributions(
    first: HiddenStateDistribution, second: HiddenStateDistribution, lam: Rational
) -> HiddenStateDistribution:
    """State-wise convex combination lam*first + (1-lam)*second."""
    lam = rational(lam)
    return HiddenStateDistribution(tuple(lam * a + (1 - lam) * b for a, b in zip(first.weights, second.weights)))


def sign_pattern(s1: int, s2: int, s3: int, s4: int) -> str:
    """The pattern string of four +1/-1 signs, such as "+++-"."""
    return "".join("+" if s == 1 else "-" for s in (s1, s2, s3, s4))


def pattern_signs(pattern: str) -> tuple[int, ...]:
    """The +1/-1 signs a pattern string applies to (E_ab, E_ab', E_a'b, E_a'b')."""
    return tuple(1 if ch == "+" else -1 for ch in pattern)


def negated(pattern: str) -> str:
    return pattern.translate(str.maketrans("+-", "-+"))


def signed_sum(pattern: str, expectations: Iterable[Fraction]) -> Fraction:
    """s1*E_ab + s2*E_ab' + s3*E_a'b + s4*E_a'b' over expectations in treatment order."""
    return sum((s * e for s, e in zip(pattern_signs(pattern), expectations, strict=True)), Fraction(0))


def chsh_facet_value(data: ExperimentData, pattern: str) -> Fraction:
    """The signed sum of the four product expectations for one pattern."""
    return signed_sum(pattern, (expectation(data.table(t)) for t in TREATMENTS))


def general_representation(data: ExperimentData) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """The product of the four tables as one source over outcome tuples, one (A, B) pair per
    treatment in treatment order: weights by tuple, zero weights omitted. It exists for any data."""
    weights = {(): Fraction(1)}
    for t in TREATMENTS:
        cells = [(pair, p) for pair, p in zip(CELLS, data.table(t).cells()) if p]
        weights = {tup + (pair,): w * p for tup, w in weights.items() for pair, p in cells}
    return weights


def reconstructed_tables(weights: dict[tuple[tuple[int, int], ...], Fraction]) -> ExperimentData:
    """Marginalize each treatment's coordinate of a general representation back to a joint table."""
    cells = [dict.fromkeys(CELLS, Fraction(0)) for _ in TREATMENTS]
    for tup, w in weights.items():
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
        tables={t: mix_tables(first.table(t), second.table(t), lam) for t in TREATMENTS}
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


def _flip_coding(data: ExperimentData, keys: tuple[str, ...], flip) -> ExperimentData:
    """Recode (+1 <-> -1), by ``flip``, the response read at the levels ``keys`` of one factor."""

    def move(t: Treatment, table):
        hit = t.alpha in keys or t.beta in keys
        return t, (flip(table) if hit else table)

    labels = data.labels
    if labels is not None and labels.responses is not None:
        responses = {
            key: (pair[1], pair[0]) if key in keys else pair
            for key, pair in labels.responses.items()
        }
        labels = LabelSet(labels.factors, labels.levels, responses)
    return _rebuild(data, move, labels)


def flip_a_coding(data: ExperimentData, level: Optional[str] = None) -> ExperimentData:
    """Recode A (+1 <-> -1) at one alpha level, "a" or "a'", or at both when level is None."""
    assert level in (None, "a", "a'")
    return _flip_coding(data, ("a", "a'") if level is None else (level,), flip_a)


def flip_b_coding(data: ExperimentData, level: Optional[str] = None) -> ExperimentData:
    """Recode B (+1 <-> -1) at one beta level, "b" or "b'", or at both when level is None."""
    assert level in (None, "b", "b'")
    return _flip_coding(data, ("b", "b'") if level is None else (level,), flip_b)


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


def _swap_levels(data: ExperimentData, first: str, second: str) -> ExperimentData:
    """Exchange the roles of one factor's two levels, ``first`` and ``second``."""
    other = {first: second, second: first}

    def move(t: Treatment, table):
        return Treatment(other.get(t.alpha, t.alpha), other.get(t.beta, t.beta)), table

    return _rebuild(data, move, _swap_level_labels(data.labels, first, second))


def swap_alpha_levels(data: ExperimentData) -> ExperimentData:
    """Exchange the roles of a and a' (relabel the alpha factor's levels)."""
    return _swap_levels(data, "a", "a'")


def swap_beta_levels(data: ExperimentData) -> ExperimentData:
    """Exchange the roles of b and b' (relabel the beta factor's levels)."""
    return _swap_levels(data, "b", "b'")

"""The integer route of the CHSH sums, marginals and z-tests against the Fraction route.

``compute_gamma``, ``check_marginal_selectivity`` and the pooled z-test scale
the cells to integers over a common denominator. Here every expectation,
signed sum, marginal, delta and z statistic is recomputed one ``Fraction``
at a time, the way ``relabel.chsh_facet_value`` evaluates a facet, and must
agree exactly: the same rationals, and bit-identical floats. A delta and a
CHSH class are derived on integers too, and checked against ``Fraction``
arithmetic on any rationals, up to the denominator cap.
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from selinf.chsh import SIGN_PATTERNS, ChshReport, classify_gamma, compute_gamma
from selinf.cli import FIXTURE_NAMES, load_fixture_text
from selinf.feasibility import HIDDEN_STATES, predicted_tables
from selinf.io import parse_experiment
from selinf.model import CELLS, MAX_COMMON_DENOMINATOR, TREATMENTS, Treatment
from selinf.selectivity import MarginalComparison, check_marginal_selectivity, test_marginal_selectivity as run_ms_test
from selinf.simulate import Model, SampleSpec, sample_counts

from conftest import (
    cap_denominator_push_forward,
    pr_box,
    random_any_data,
    random_hidden_distribution,
    random_ms_data,
)
from relabel import chsh_facet_value, expectation, point_mass_distribution, pr_a_plus, pr_b_plus

# Each comparison's response and level, and its two treatments, built afresh rather than taken from TREATMENTS.
COMPARED = {
    ("A", "a"): (Treatment("a", "b"), Treatment("a", "b'")),
    ("A", "a'"): (Treatment("a'", "b"), Treatment("a'", "b'")),
    ("B", "b"): (Treatment("a", "b"), Treatment("a'", "b")),
    ("B", "b'"): (Treatment("a", "b'"), Treatment("a'", "b'")),
}


def corpus():
    """The goldens, the box, the seeded conftest corpora and the push-forward at the denominator cap."""
    for name in FIXTURE_NAMES:
        yield parse_experiment(load_fixture_text(name))
    yield pr_box()
    rng = random.Random(2026)
    for _ in range(40):
        yield random_ms_data(rng)
        yield random_any_data(rng)
        yield predicted_tables(random_hidden_distribution(rng))
    yield cap_denominator_push_forward()


def sampled_corpus():
    """Count-carrying data: seeded samples of selective and contaminated models, and table 3."""
    rng = random.Random(77)
    cross = dict(zip(TREATMENTS, CELLS))
    for seed in range(6):
        hidden = random_hidden_distribution(rng)
        spec = SampleSpec(n_per_treatment=50 + 37 * seed, seed=seed)
        yield sample_counts(Model(hidden), spec)
        yield sample_counts(Model(hidden, Fraction(1, 5), cross), spec)
    point = point_mass_distribution(HIDDEN_STATES[0])
    yield sample_counts(Model(point), SampleSpec(20, 3))  # every pooled proportion 0 or 1
    yield parse_experiment(load_fixture_text("table3"))  # independent counts


def plus(table, response):
    return pr_a_plus(table) if response == "A" else pr_b_plus(table)


def test_chsh_report_matches_the_fraction_route():
    for data in corpus():
        report = compute_gamma(data)
        sums = {p: chsh_facet_value(data, p) for p in SIGN_PATTERNS}
        gamma = max(sums.values())
        assert report.expectations == {t: expectation(data.table(t)) for t in TREATMENTS}
        assert list(report.sums.items()) == list(sums.items())
        assert report.gamma == gamma
        assert report.argmax_patterns == tuple(p for p, v in sums.items() if v == gamma)
        assert report.classification == classify_gamma(gamma)
        scaled = math.floor(gamma * 1000 + Fraction(1, 2))
        assert report.gamma_decimal() == f"{scaled // 1000}.{scaled % 1000:03d}"


def test_marginals_and_deltas_match_the_fraction_route():
    for data in corpus():
        report = check_marginal_selectivity(data)
        deltas = []
        for comp, ((response, level), (first, second)) in zip(report.comparisons, COMPARED.items()):
            p1, p2 = plus(data.table(first), response), plus(data.table(second), response)
            assert (comp.response, comp.fixed_level) == (response, level)
            assert comp.treatments == (first, second)
            assert (comp.p_under_first, comp.p_under_second) == (p1, p2)
            assert comp.delta == abs(p1 - p2)
            deltas.append(abs(p1 - p2))
        assert report.max_delta == max(deltas)
        assert report.satisfied == (max(deltas) == 0)


def test_z_statistics_match_the_fraction_route():
    for data in sampled_corpus():
        for bonferroni in (False, True):
            results = run_ms_test(data, check_marginal_selectivity(data), 0.05, bonferroni)
            for r, ((response, _), (first, second)) in zip(results, COMPARED.items()):
                p1, p2 = plus(data.table(first), response), plus(data.table(second), response)
                n1, n2 = data.count(first).n, data.count(second).n
                pooled = (p1 * n1 + p2 * n2) / Fraction(n1 + n2)
                if pooled in (0, 1):
                    z = 0.0 if p1 == p2 else math.copysign(math.inf, float(p1 - p2))
                else:
                    z = float(p1 - p2) / math.sqrt(float(pooled * (1 - pooled)) * (1 / n1 + 1 / n2))
                assert (r.n_first, r.n_second, r.degenerate) == (n1, n2, pooled in (0, 1))
                assert r.z_statistic == z  # bit for bit, not approximately
                assert r.p_value == math.erfc(abs(z) / math.sqrt(2))


def fraction_class(gamma):
    """The classification by Fraction arithmetic: gamma against 2, then gamma squared against 8."""
    if gamma <= 2:
        return "classical-bound-satisfied"
    if gamma * gamma <= 8:
        return "quantum-region"
    return "supra-quantum"


# Just under the cap; odd, so q/2 is not a value k/q
CAP_Q = MAX_COMMON_DENOMINATOR - 1
# The largest k with 2k^2 <= q^2: 4k/q is the largest gamma over q at or below 2*sqrt(2)
CAP_K = math.isqrt(CAP_Q * CAP_Q // 2)
oracle = settings(derandomize=True, database=None, max_examples=50, deadline=None)  # the three take under 1 s


@oracle
@given(st.fractions(0, 4, max_denominator=10**9))
@example(Fraction(2))
@example(Fraction(2828427, 1000000))  # 2.828427^2 < 8: quantum region
@example(Fraction(2828428, 1000000))  # 2.828428^2 > 8: supra-quantum
@example(Fraction(4))
@example(Fraction(4 * (CAP_Q // 2), CAP_Q))
@example(Fraction(4 * (CAP_Q // 2 + 1), CAP_Q))
@example(Fraction(4 * CAP_K, CAP_Q))
@example(Fraction(4 * (CAP_K + 1), CAP_Q))
def test_the_class_of_a_gamma_is_its_fraction_class(gamma):
    # E_ab = E_ab' = E_a'b = -E_a'b' = gamma/4, so +++- sums to gamma
    report = ChshReport(dict(zip(TREATMENTS, (gamma / 4, gamma / 4, gamma / 4, -gamma / 4))))
    assert report.gamma == gamma
    assert report.classification == classify_gamma(gamma) == fraction_class(gamma)


def test_the_cap_examples_straddle_both_bounds():
    below, above = Fraction(4 * CAP_K, CAP_Q), Fraction(4 * (CAP_K + 1), CAP_Q)
    assert below * below <= 8 < above * above
    assert [classify_gamma(Fraction(4 * k, CAP_Q)) for k in (CAP_Q // 2, CAP_Q // 2 + 1, CAP_K, CAP_K + 1)] == [
        "classical-bound-satisfied", "quantum-region", "quantum-region", "supra-quantum"
    ]


@oracle
@given(st.lists(st.fractions(-1, 1, max_denominator=10**6), min_size=4, max_size=4))
def test_the_class_of_any_expectations_is_the_fraction_class_of_their_gamma(expectations):
    report = ChshReport(dict(zip(TREATMENTS, expectations)))
    assert report.classification == classify_gamma(report.gamma) == fraction_class(report.gamma)


@oracle
@given(st.fractions(0, 1, max_denominator=10**12), st.fractions(0, 1, max_denominator=10**12))
@example(Fraction(1, CAP_Q), Fraction(2, CAP_Q - 2))
@example(Fraction(CAP_Q - 1, CAP_Q), Fraction(1, MAX_COMMON_DENOMINATOR))
@example(Fraction(1, 3), Fraction(1, 3))
def test_a_delta_is_the_fraction_difference(first, second):
    comparison = MarginalComparison("b'", first, second)
    assert comparison.delta == abs(first - second)

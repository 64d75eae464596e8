"""The integer route of the CHSH sums, marginals and z-tests against the Fraction route.

``compute_gamma``, ``check_marginal_selectivity`` and the pooled z-test scale
the cells to integers over a common denominator. Here every expectation,
signed sum, marginal, delta and z statistic is recomputed one ``Fraction``
at a time, the way ``relabel.chsh_facet_value`` evaluates a facet, and must
agree exactly: the same rationals, and bit-identical floats.
"""

import math
import random
from fractions import Fraction

from selinf.chsh import SIGN_PATTERNS, classify_gamma, compute_gamma
from selinf.cli import FIXTURE_NAMES, load_fixture_text
from selinf.feasibility import HIDDEN_STATES, predicted_tables
from selinf.io import parse_experiment
from selinf.model import CELLS, TREATMENTS, Treatment
from selinf.selectivity import check_marginal_selectivity, test_marginal_selectivity as run_ms_test
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
        assert report.argmax_patterns == {p for p, v in sums.items() if v == gamma}
        assert report.classification is classify_gamma(gamma)
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

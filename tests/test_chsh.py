"""CHSH statistic: sign patterns, the maximum, and bound classification."""

import random
from fractions import Fraction

import pytest

from selinf.chsh import SIGN_PATTERNS, ChshReport, classify_gamma, compute_gamma
from selinf.errors import InvalidValue
from selinf.feasibility import predicted_tables
from selinf.model import TREATMENTS

from conftest import random_any_data, random_hidden_distribution
from relabel import (
    chsh_facet_value,
    expectation,
    flip_a_coding,
    flip_b_coding,
    negated,
    sign_pattern,
    swap_alpha_levels,
    swap_beta_levels,
)


class TestSignPatterns:
    def test_exactly_eight_with_odd_plus_counts(self):
        assert len(SIGN_PATTERNS) == 8
        assert len(set(SIGN_PATTERNS)) == 8
        for p in SIGN_PATTERNS:
            assert len(p) == 4 and set(p) <= {"+", "-"}
            assert p.count("+") in (1, 3)

    def test_fixed_lexicographic_order(self):
        assert list(SIGN_PATTERNS) == [
            "+++-", "++-+", "+-++", "+---", "-+++", "-+--", "--+-", "---+",
        ]

    def test_closed_under_negation(self):
        assert {negated(p) for p in SIGN_PATTERNS} == set(SIGN_PATTERNS)


class TestGammaOnGoldenTables:
    def test_no_correlation_anywhere(self, table1):
        report = compute_gamma(table1)
        assert report.gamma == 0
        assert report.classification == "classical-bound-satisfied"
        # every expectation is 0, so every signed sum ties at the maximum, listed in pattern order
        assert report.argmax_patterns == SIGN_PATTERNS

    def test_extremal_box(self, table2):
        report = compute_gamma(table2)
        assert report.gamma == 4
        assert report.classification == "supra-quantum"
        assert report.argmax_patterns == (sign_pattern(1, 1, 1, -1),)

    def test_observed_experiment(self, table3):
        report = compute_gamma(table3)
        assert Fraction(2415, 1000) <= report.gamma <= Fraction(2425, 1000)
        assert report.gamma_decimal() == "2.422"
        assert report.argmax_patterns == (sign_pattern(-1, 1, 1, 1),)


class TestFacetValues:
    def test_each_sum_applies_the_signs_its_key_spells(self):
        rng = random.Random(26)
        for _ in range(50):
            data = random_any_data(rng)
            report = compute_gamma(data)
            assert report.sums == {p: chsh_facet_value(data, p) for p in SIGN_PATTERNS}

    def test_extremal_box_facet(self, table2):
        assert chsh_facet_value(table2, sign_pattern(1, 1, 1, -1)) == 4

    def test_negated_pattern_negates_value(self):
        rng = random.Random(21)
        for _ in range(50):
            data = random_any_data(rng)
            for p in SIGN_PATTERNS:
                assert chsh_facet_value(data, negated(p)) == -chsh_facet_value(data, p)

    def test_observed_experiment_facet_is_signed_expectation_sum(self, table3):
        # oracle: -E_ab + E_ab' + E_a'b + E_a'b' from the fixture's expectations
        es = [expectation(table3.table(t)) for t in TREATMENTS]
        expected = -es[0] + es[1] + es[2] + es[3]
        value = chsh_facet_value(table3, sign_pattern(-1, 1, 1, 1))
        assert value == expected
        assert Fraction(2415, 1000) <= value <= Fraction(2425, 1000)


class TestGammaInvariants:
    def test_gamma_nonnegative_and_at_most_four(self):
        rng = random.Random(22)
        for _ in range(200):
            report = compute_gamma(random_any_data(rng))
            assert 0 <= report.gamma <= 4

    def test_gamma_is_max_and_argmax_is_complete(self):
        rng = random.Random(23)
        for _ in range(100):
            report = compute_gamma(random_any_data(rng))
            assert report.gamma == max(report.sums.values())
            assert list(report.sums) == list(SIGN_PATTERNS)
            assert report.argmax_patterns == tuple(p for p, v in report.sums.items() if v == report.gamma)

    def test_hidden_state_models_respect_classical_bound(self):
        rng = random.Random(24)
        for _ in range(200):
            data = predicted_tables(random_hidden_distribution(rng))
            assert compute_gamma(data).gamma <= 2

    def test_relabeling_invariance(self):
        relabelings = [
            lambda d: flip_a_coding(d, "a"),
            lambda d: flip_a_coding(d, "a'"),
            lambda d: flip_a_coding(d),
            lambda d: flip_b_coding(d, "b"),
            lambda d: flip_b_coding(d, "b'"),
            lambda d: flip_b_coding(d),
            swap_alpha_levels,
            swap_beta_levels,
        ]
        rng = random.Random(25)
        for _ in range(50):
            data = random_any_data(rng)
            gamma = compute_gamma(data).gamma
            for fn in relabelings:
                assert compute_gamma(fn(data)).gamma == gamma

    def test_relabeling_permutes_signed_sums(self):
        rng = random.Random(26)
        data = random_any_data(rng)
        base = sorted(compute_gamma(data).sums.values())
        for fn in (swap_alpha_levels, swap_beta_levels, flip_a_coding, flip_b_coding):
            assert sorted(compute_gamma(fn(data)).sums.values()) == base


class TestClassification:
    def test_exact_boundary_at_two(self):
        assert classify_gamma(Fraction(2)) == "classical-bound-satisfied"
        assert classify_gamma(Fraction(2001, 1000)) == "quantum-region"

    def test_quantum_bound_compared_as_square_vs_eight(self):
        # 2.828^2 = 7.997... < 8 < 8.003... = 2.829^2
        assert classify_gamma(Fraction(2828, 1000)) == "quantum-region"
        assert classify_gamma(Fraction(2829, 1000)) == "supra-quantum"

    def test_golden_tables_take_each_name(self, table1, table2, table3):
        names = [compute_gamma(data).classification for data in (table1, table3, table2)]
        assert names == ["classical-bound-satisfied", "quantum-region", "supra-quantum"]

    def test_a_report_classifies_its_own_gamma(self):
        rng = random.Random(25)
        for _ in range(100):
            report = compute_gamma(random_any_data(rng))
            assert report.classification == classify_gamma(report.gamma)

    def test_gamma_decimal_rounding(self, table3):
        report = compute_gamma(table3)
        # 2.421655... rounds half-up
        assert report.gamma_decimal() == "2.422"

    def test_gamma_decimal_half_up(self):
        for gamma, expected in [
            (Fraction(5, 2), "2.500"),
            (Fraction(25005, 10000), "2.501"),
            (Fraction(5, 10000), "0.001"),
        ]:
            # E_ab + E_ab' + E_a'b - E_a'b' = gamma, attained by +++- alone
            report = ChshReport(dict(zip(TREATMENTS, (gamma / 4, gamma / 4, gamma / 4, -gamma / 4))))
            assert report.gamma == gamma and report.argmax_patterns == (SIGN_PATTERNS[0],)
            assert report.gamma_decimal() == expected


class TestExpectationRange:
    @pytest.mark.parametrize(
        "bad", [Fraction(5), Fraction(-1000001, 1000000), "-1.5"], ids=["five", "just-below-minus-one", "a-string"]
    )
    def test_an_expectation_outside_minus_one_to_one_is_rejected(self, bad):
        expectations = dict(zip(TREATMENTS, (Fraction(0), bad, Fraction(1, 2), Fraction(-1))))
        with pytest.raises(InvalidValue) as caught:
            ChshReport(expectations)
        assert str(caught.value) == f"expectation E[A*B | a,b'] = {Fraction(bad)} outside [-1, 1]"

    @pytest.mark.parametrize("index", range(4), ids=[t.key for t in TREATMENTS])
    def test_the_message_names_the_treatment_out_of_range(self, index):
        values = [Fraction(1, 2)] * 4
        values[index] = Fraction(-3, 2)
        with pytest.raises(InvalidValue) as caught:
            ChshReport(dict(zip(TREATMENTS, values)))
        assert str(caught.value) == f"expectation E[A*B | {TREATMENTS[index].key}] = -3/2 outside [-1, 1]"

    def test_both_ends_are_accepted(self):
        report = ChshReport(dict(zip(TREATMENTS, (Fraction(1), Fraction(-1), Fraction(1), Fraction(1)))))
        assert report.gamma == 4 and report.argmax_patterns == ("+-++",)

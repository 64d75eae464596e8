"""Marginal selectivity checks and the pooled two-proportion z-test."""

import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from selinf.errors import InvalidValue
from selinf.feasibility import HIDDEN_STATES, HiddenStateDistribution, predicted_tables
from selinf.model import LEVELS, TREATMENTS, CountTable, ExperimentData
from selinf.selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    check_marginal_selectivity,
    test_marginal_selectivity as run_ms_test,
)

from conftest import random_any_data, random_hidden_distribution, random_ms_data
from relabel import comparison, flip_a_coding, flip_b_coding
from test_corpus_digest import corpus


def with_counts(counts_by_treatment):
    counts = {t: CountTable(*cells) for t, cells in zip(TREATMENTS, counts_by_treatment)}
    tables = {t: c.normalized() for t, c in counts.items()}
    return ExperimentData(tables=tables, counts=counts)


def exact_counts(data):
    """``data`` with each table's cells as counts over that table's least common denominator."""
    counts = {}
    for t in TREATMENTS:
        cells = data.table(t).cells()
        n = math.lcm(*(c.denominator for c in cells))
        counts[t] = CountTable(*(c.numerator * (n // c.denominator) for c in cells))
    return ExperimentData(tables=data.tables, counts=counts)


# Table 3 counts, round(81 * p) per cell.
TABLE3_COUNTS = ((4, 51, 21, 5), (48, 2, 24, 7), (63, 7, 7, 4), (12, 7, 8, 54))


class TestExactCheck:
    def test_zero_correlation_tables_still_violate(self, table1):
        report = check_marginal_selectivity(table1, 0)
        assert not report.satisfied
        b_at_b = comparison(report, "b")
        assert (b_at_b.p_under_first, b_at_b.p_under_second) == (
            Fraction(1, 2),
            Fraction(2, 5),
        )
        assert b_at_b.delta == Fraction(1, 10)

    def test_extremal_box_satisfies_exactly(self, table2):
        report = check_marginal_selectivity(table2, 0)
        assert report.satisfied
        assert report.max_delta == 0

    def test_observed_experiment_second_alternative_margins(self, table3):
        report = check_marginal_selectivity(table3, 0)
        assert not report.satisfied
        cat = comparison(report, "a'").complements()
        assert abs(cat[0] - Fraction(135, 1000)) <= Fraction(2, 1000)
        assert abs(cat[1] - Fraction(766, 1000)) <= Fraction(2, 1000)

    def test_comparison_order_is_fixed(self, table1):
        report = check_marginal_selectivity(table1)
        slots = [(c.response, c.fixed_level) for c in report.comparisons]
        assert slots == [("A", "a"), ("A", "a'"), ("B", "b"), ("B", "b'")]

    def test_the_level_fixes_the_response(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        for level, response in (("a", "A"), ("a'", "A"), ("b", "B"), ("b'", "B")):
            comp = MarginalComparison(level, half, third)
            assert (comp.fixed_level, comp.response, comp.delta) == (level, response, Fraction(1, 6))

    @pytest.mark.parametrize(
        "level", ["c", "A", "", "a,b", None, ("a",), "a" * 10**5], ids=["c", "A", "empty", "a,b", "None", "tuple", "long"]
    )
    def test_a_comparison_needs_a_known_level(self, level):
        with pytest.raises(InvalidValue, match=r"^unknown level .*, expected one of a, a', b, b'$") as caught:
            MarginalComparison(level, Fraction(1, 2), Fraction(1, 3))
        assert len(str(caught.value).encode()) < 200

    @pytest.mark.parametrize(
        "levels", [("a", "a'", "b"), ("b'", "b", "a'", "a"), ("a",) * 4, (*LEVELS, "a"), ()],
        ids=["three", "reversed", "four-copies", "five", "none"],
    )
    def test_a_report_needs_the_four_comparisons_in_order(self, levels):
        comparisons = [MarginalComparison(level, Fraction(1, 2), Fraction(1, 2)) for level in levels]
        with pytest.raises(InvalidValue) as caught:
            MarginalReport(comparisons, Fraction(0))
        assert str(caught.value) == f"comparisons must be at a, a', b, b' in that order, got {list(levels)!r}"

    def test_tolerance_widening_is_monotone(self, table1):
        exact = check_marginal_selectivity(table1, 0)
        assert not exact.satisfied
        assert exact.max_delta == Fraction(1, 4)
        assert check_marginal_selectivity(table1, Fraction(1, 4)).satisfied
        assert not check_marginal_selectivity(table1, Fraction(24, 100)).satisfied

    def test_negative_tolerance_rejected(self, table1):
        with pytest.raises(InvalidValue):
            check_marginal_selectivity(table1, Fraction(-1, 10))

    @pytest.mark.parametrize(
        "tolerance",
        [Fraction(1, 10**2000 + 1), Fraction(10**2000 + 1), "-" + "9" * 4000 + "e1000"],
        ids=["long-denominator", "long-numerator", "long-negative-numerator"],
    )
    def test_oversized_tolerance_rejected_before_its_sign(self, table1, tolerance):
        with pytest.raises(InvalidValue, match="^tolerance: numerator or denominator exceeds 10\\*\\*2000$"):
            check_marginal_selectivity(table1, tolerance)

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (Fraction(-1, 2), "tolerance must be nonnegative, got -1/2"),
            (Fraction(-1, 10**2001), "tolerance: numerator or denominator exceeds 10**2000"),
        ],
        ids=["negative", "beyond-cap-and-negative"],
    )
    def test_a_report_checks_its_own_tolerance(self, table1, tolerance, message):
        comparisons = check_marginal_selectivity(table1).comparisons
        with pytest.raises(InvalidValue) as caught:
            MarginalReport(comparisons, tolerance)
        assert str(caught.value) == message
        with pytest.raises(InvalidValue) as caught:
            check_marginal_selectivity(table1, tolerance)
        assert str(caught.value) == message

    def test_tolerance_at_the_cap_accepted(self, table1):
        assert check_marginal_selectivity(table1, 10**2000).satisfied
        assert not check_marginal_selectivity(table1, Fraction(1, 10**2000)).satisfied

    def test_hidden_state_models_always_satisfy(self):
        rng = random.Random(31)
        for _ in range(100):
            data = predicted_tables(random_hidden_distribution(rng))
            report = check_marginal_selectivity(data, 0)
            assert report.satisfied and report.max_delta == 0

    def test_delta_invariant_under_recoding(self):
        rng = random.Random(32)
        for _ in range(50):
            data = random_any_data(rng)
            base = [c.delta for c in check_marginal_selectivity(data).comparisons]
            for fn in (flip_a_coding, flip_b_coding):
                flipped = [c.delta for c in check_marginal_selectivity(fn(data)).comparisons]
                assert flipped == base


class TestZTest:
    def test_observed_counts_give_large_z(self):
        data = with_counts(TABLE3_COUNTS)
        results = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.05)
        tiger_cat = results[1]  # A at a'
        # frozen from the pooled-z formula: (70/81 - 19/81) / sqrt(pbar(1-pbar)(2/81))
        assert abs(tiger_cat.z_statistic - 8.05325127432548) < 1e-9
        assert abs(tiger_cat.z_statistic) > 1.96
        assert tiger_cat.reject

    def test_published_decimals_with_independent_counts(self, table3):
        results = run_ms_test(table3, check_marginal_selectivity(table3), alpha_sig=0.05)
        tiger_cat = results[1]
        # frozen from the same formula at p = 864/999 vs 234/1000
        assert abs(tiger_cat.z_statistic - 8.06913056294408) < 1e-9
        assert tiger_cat.reject

    def test_identical_proportions_give_zero(self):
        data = with_counts([(10, 10, 10, 10)] * 4)
        for r in run_ms_test(data, check_marginal_selectivity(data)):
            assert r.z_statistic == 0.0
            assert r.p_value == 1.0
            assert not r.reject

    def test_exactly_selective_counts_give_all_zero(self, table2):
        # table 2 proportions realized as exact counts
        counts = [(50, 0, 0, 50)] * 3 + [(0, 50, 50, 0)]
        data = with_counts(counts)
        assert all(r.z_statistic == 0.0 for r in run_ms_test(data, check_marginal_selectivity(data)))

    def test_degenerate_point_mass_flagged_not_fatal(self):
        data = with_counts([(5, 0, 0, 0)] * 4)
        results = run_ms_test(data, check_marginal_selectivity(data))
        assert all(r.degenerate for r in results)
        assert all(r.z_statistic == 0.0 for r in results)
        # a pooled proportion of 0 or 1 forces both proportions to it: so on the
        # corpus's sampled experiments, and on seeded tables as exact counts
        rng = random.Random(2026)
        items = [data for data in corpus() if data.has_full_counts()]
        items += [exact_counts(random_ms_data(rng)) for _ in range(100)]
        items += [exact_counts(random_any_data(rng)) for _ in range(100)]
        degenerate = 0
        for data in items:
            for r in run_ms_test(data, check_marginal_selectivity(data)):
                if r.degenerate:
                    degenerate += 1
                    assert r.comparison.delta == 0
                    assert (r.z_statistic, r.p_value, r.reject) == (0.0, 1.0, False)
        assert degenerate > 20

    def test_missing_counts_raises(self, table1):
        with pytest.raises(InvalidValue, match=r"^statistical test needs counts for all four treatments$"):
            run_ms_test(table1, check_marginal_selectivity(table1))

    def test_alpha_out_of_range_rejected(self):
        data = with_counts([(10, 10, 10, 10)] * 4)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidValue):
                run_ms_test(data, check_marginal_selectivity(data), alpha_sig=bad)

    def test_a_test_is_its_comparison_sample_sizes_and_level(self):
        data = with_counts(TABLE3_COUNTS)
        marginals = check_marginal_selectivity(data)
        for r in run_ms_test(data, marginals, alpha_sig=0.01):
            again = MsTestResult(r.comparison, r.n_first, r.n_second, 0.01)
            assert again == r
            assert (again.z_statistic, again.p_value, again.reject, again.degenerate) == (
                r.z_statistic, r.p_value, r.reject, r.degenerate
            )

    @pytest.mark.parametrize(
        "n_first, n_second, alpha_sig",
        [(0, 81, 0.05), (81, -1, 0.05), (True, 81, 0.05), (81.0, 81, 0.05), ("81", 81, 0.05), (81, 81, 1.0), (81, 81, True)],
    )
    def test_a_test_rejects_sample_sizes_and_levels_no_count_table_gives(self, n_first, n_second, alpha_sig):
        comp = MarginalComparison("a", Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(InvalidValue, match="^(sample sizes must be positive integers|alpha_sig must be in)"):
            MsTestResult(comp, n_first, n_second, alpha_sig)

    @pytest.mark.parametrize(
        "p_first, p_second, n_first, n_second",
        [
            (Fraction(1, 10**400), Fraction(0), 5, 5),
            (Fraction(0), Fraction(1, 10**400), 5, 5),
            (Fraction(3, 10**500), Fraction(1, 10**500), 7, 11),
        ],
        ids=["first-tiny", "second-tiny", "both-tiny"],
    )
    def test_underflowing_pooled_variance_gives_the_exact_z(self, p_first, p_second, n_first, n_second):
        # the float pooled variance is 0.0 here; z is the pooled-z formula to 60 digits, rounded once
        pooled = (p_first * n_first + p_second * n_second) / (n_first + n_second)
        variance = pooled * (1 - pooled) * Fraction(n_first + n_second, n_first * n_second)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            diff = Decimal(p_first.numerator) / p_first.denominator - Decimal(p_second.numerator) / p_second.denominator
            z = diff / (Decimal(variance.numerator) / variance.denominator).sqrt()
        r = MsTestResult(MarginalComparison("a", p_first, p_second), n_first, n_second, 0.05)
        assert (r.z_statistic, r.p_value, r.reject, r.degenerate) == (float(z), 1.0, False, False)

    def test_p_value_monotone_in_z_magnitude(self):
        data = with_counts(TABLE3_COUNTS)
        results = sorted(run_ms_test(data, check_marginal_selectivity(data)), key=lambda r: abs(r.z_statistic))
        ps = [r.p_value for r in results]
        assert ps == sorted(ps, reverse=True)

    def test_reject_monotone_in_alpha(self):
        data = with_counts(TABLE3_COUNTS)
        weak = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.4)
        strict = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.001)
        for w, s in zip(weak, strict):
            if s.reject:
                assert w.reject

    def test_bonferroni_divides_alpha(self):
        data = with_counts(TABLE3_COUNTS)
        plain = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.05)
        corrected = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.05, bonferroni=True)
        for p, c in zip(plain, corrected):
            assert c.alpha_sig == pytest.approx(p.alpha_sig / 4)
            if c.reject:
                assert p.reject

    def test_two_sided_p_from_standard_normal(self):
        data = with_counts(TABLE3_COUNTS)
        for r in run_ms_test(data, check_marginal_selectivity(data)):
            expected = math.erfc(abs(r.z_statistic) / math.sqrt(2))
            assert r.p_value == pytest.approx(expected, rel=1e-12)


class TestZTestAgainstStatsmodels:
    def test_matches_proportions_ztest(self):
        sm = pytest.importorskip("statsmodels.stats.proportion")
        data = with_counts(TABLE3_COUNTS)
        results = run_ms_test(data, check_marginal_selectivity(data))
        # A at a': Tiger successes under b vs b'
        successes = [63 + 7, 12 + 7]
        z_ref, p_ref = sm.proportions_ztest(successes, [81, 81])
        assert results[1].z_statistic == pytest.approx(z_ref, rel=1e-12)
        assert results[1].p_value == pytest.approx(p_ref, rel=1e-9)


class TestSelectiveModelsUnderTest:
    def test_exactly_selective_sampled_tables_keep_small_z(self):
        # push-forward tables turned into exact counts: z is identically zero
        dist = HiddenStateDistribution.from_mapping(
            {HIDDEN_STATES[0]: Fraction(1, 4), HIDDEN_STATES[5]: Fraction(3, 4)}
        )
        data = predicted_tables(dist)
        counts = {}
        for t in TREATMENTS:
            cells = [int(c * 16) for c in data.table(t).cells()]
            counts[t] = CountTable(*cells)
        full = ExperimentData(
            tables={t: c.normalized() for t, c in counts.items()}, counts=counts
        )
        assert all(r.z_statistic == 0.0 for r in run_ms_test(full, check_marginal_selectivity(full)))

"""Core data model: exact parsing, tables, expectations, marginals, transforms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from selinf import model
from selinf.errors import ConflictingData, InvalidTable, InvalidValue, ZeroTotal
from selinf.model import (
    CELLS,
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
    LabelSet,
    Treatment,
    rational,
)

from conftest import random_any_data
from relabel import (
    flip_a,
    flip_a_coding,
    flip_b,
    flip_b_coding,
    expectation,
    mix_experiments,
    pr_a_plus,
    pr_b_plus,
    swap_alpha_levels,
    swap_beta_levels,
    uniform_table,
)


def random_table(rng, denom=20):
    cells = [Fraction(rng.randint(0, denom)) for _ in range(4)]
    if sum(cells) == 0:
        cells[0] = Fraction(1)
    total = sum(cells)
    return JointTable(*(c / total for c in cells))


class TestRational:
    def test_decimal_string_is_exact(self):
        assert rational(".049") == Fraction(49, 1000)
        assert rational("0.630") == Fraction(630, 1000)

    def test_fraction_string(self):
        assert rational("49/1000") == Fraction(49, 1000)

    def test_float_goes_through_repr(self):
        assert rational(0.049) == Fraction(49, 1000)
        assert rational(0.1) == Fraction(1, 10)

    def test_int_and_fraction_pass_through(self):
        assert rational(1) == Fraction(1)
        assert rational(Fraction(3, 7)) == Fraction(3, 7)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "", None, True, [1], float("nan"), float("inf")])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(InvalidValue):
            rational(bad)

    def test_decimal_exponent_is_capped(self):
        assert rational("1e-1000") == Fraction(1, 10**1000)
        assert rational("5E+0000000001") == 50
        for bad in ("1e-1001", "1e1_001", "1e-2000000", "1e-" + "9" * 5000):
            with pytest.raises(InvalidValue, match="decimal exponent"):
                rational(bad)


def fraction_route(text):
    """What ``rational`` gave for every string before it read plain strings with
    int(): the exponent cap, then ``Fraction``; a Fraction or the error message."""
    exponent = model._DECIMAL_EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 4 or int(digits or 0) > 1000:
        return "decimal exponent beyond +-1000"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"cannot interpret {model.echo(text)} as a rational"


def rational_or_message(text):
    try:
        return rational(text)
    except InvalidValue as exc:
        return str(exc)


# Python 3.10's Fraction rejects "0.000_1" and "1_0/3", 3.11 and later accept
# them; int() reads underscores on every version, so they must not be plain.
FIXED_STRINGS = ("0.", ".", "1/0", "00/1", "١/٢", " 1/2 ", "0.000_1", "1_0/3", "1/-2", "+.5", "1e5", "1.5/2")


class TestEcho:
    def test_values_up_to_60_characters_print_as_their_repr(self):
        for value in ("x" * 58, ["n", "total"], 7, None):
            assert model.echo(value) == repr(value)

    def test_longer_values_print_their_start_and_length(self):
        assert model.echo("x" * 59) == "'" + "x" * 59 + "... (61 characters)"
        assert model.echo("y" * 100_000) == "'" + "y" * 59 + "... (100,002 characters)"


class TestRationalRoutes:
    @pytest.mark.parametrize("text", FIXED_STRINGS + ("49/1000", ".049", "0.5", "7", "0/3", "0." + "1" * 5000))
    def test_fixed_strings_read_as_fraction_reads_them(self, text):
        assert rational_or_message(text) == fraction_route(text)

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(st.text(alphabet="0123456789./_e+- ١²", max_size=9))
    def test_strings_read_as_fraction_reads_them(self, text):
        # "١" is an Arabic-Indic one, a digit to int() and Fraction; "²" a digit to str.isdigit() only
        assert rational_or_message(text) == fraction_route(text)

    @pytest.mark.parametrize("text", ["١/٢", "٠.٥", "١", "1/٢"])
    def test_non_ascii_digits_take_the_fraction_parser(self, text, monkeypatch):
        parsed = []

        class Spy(Fraction):
            def __new__(cls, *args):
                parsed.append(args)
                return Fraction(*args)

        monkeypatch.setattr(model, "Fraction", Spy)
        assert rational(text) == Fraction(text)
        assert parsed == [(text,)]


class TestTreatments:
    def test_four_canonical_treatments_in_order(self):
        assert [t.key for t in TREATMENTS] == ["a,b", "a,b'", "a',b", "a',b'"]
        assert [t.index for t in TREATMENTS] == [0, 1, 2, 3]

    def test_from_key_round_trip(self):
        for t in TREATMENTS:
            assert Treatment.from_key(t.key) == t
        with pytest.raises(InvalidValue):
            Treatment.from_key("a,c")

    def test_ad_hoc_treatment_hashes_and_looks_up_as_the_canonical_one(self):
        ad_hoc = Treatment("a", "b")
        assert ad_hoc is not TREATMENTS[0] and ad_hoc == TREATMENTS[0]
        assert hash(ad_hoc) == hash(TREATMENTS[0]) == 0
        data = random_any_data(random.Random(5))
        counts = {t: CountTable(1, 2, 3, 4) for t in TREATMENTS}
        with_counts = ExperimentData({t: ct.normalized() for t, ct in counts.items()}, counts)
        assert data.table(ad_hoc) is data.table(TREATMENTS[0]) is data.tables[ad_hoc]
        assert with_counts.count(ad_hoc) is with_counts.count(TREATMENTS[0])
        assert {ad_hoc: "x"}[TREATMENTS[0]] == "x" and ad_hoc in set(TREATMENTS)
        for t in TREATMENTS:
            assert hash(Treatment(t.alpha, t.beta)) == hash(t) == t.index
        assert len({Treatment(t.alpha, t.beta) for t in TREATMENTS} | set(TREATMENTS)) == 4

    def test_tables_keyed_by_ad_hoc_treatments_are_rekeyed_canonically(self):
        data = random_any_data(random.Random(6))
        rebuilt = ExperimentData({Treatment(t.alpha, t.beta): data.table(t) for t in reversed(TREATMENTS)})
        assert list(rebuilt.tables) == list(TREATMENTS)
        assert all(a is b for a, b in zip(rebuilt.tables, TREATMENTS))
        assert rebuilt == data

    def test_treatment_needs_one_level_per_factor(self):
        with pytest.raises(InvalidValue, match=r"""^treatment needs an alpha level and a beta level, got 'b' and 'b'$"""):
            Treatment("b", "b")
        with pytest.raises(InvalidValue, match=r"""^treatment needs an alpha level and a beta level, got 'a' and "a'"$"""):
            Treatment("a", "a'")
        for alpha, beta in (("a" * 10**6, "b"), ("a", ["b"] * 10**5), (None, "b'")):
            with pytest.raises(InvalidValue) as exc:
                Treatment(alpha, beta)
            assert len(str(exc.value).encode()) < 200


class TestJointTable:
    def test_accepts_strings_and_normalizes_to_fractions(self):
        t = JointTable(".5", "0", "0", ".5")
        assert t.p_pp == Fraction(1, 2)
        assert isinstance(t.p_pm, Fraction)

    def test_sum_must_be_exactly_one(self):
        with pytest.raises(InvalidTable, match=r"^cells sum to 999/1000, expected exactly 1$"):
            JointTable(".778", ".086", ".086", ".049")  # sums to .999

    def test_sum_is_checked_exactly_and_printed_reduced(self):
        # denominators 10**400 + 1 and 10**400 + 3 share no factor
        d1, d2 = 10**400 + 1, 10**400 + 3
        JointTable(Fraction(1, d1), Fraction(d1 - 1, d1) - Fraction(1, d2), Fraction(1, d2), 0)
        # (d2 + 1)/d2 has 802 digits; the unreduced total, over d1 * d2, would have about 1,600
        with pytest.raises(InvalidTable, match=rf"^cells sum to {str(d2 + 1)[:60]}\.\.\. \(802 digits\), expected exactly 1$"):
            JointTable(Fraction(1, d1), Fraction(d1 - 1, d1) - Fraction(1, d2), Fraction(2, d2), 0)
        with pytest.raises(InvalidTable, match=r"^cells sum to 1/6, expected exactly 1$"):
            JointTable(Fraction(1, 12), Fraction(1, 24), Fraction(1, 24), 0)

    def test_sums_and_cells_too_long_to_print_are_named_not_printed(self):
        # the wrong total's denominator, the four coprime ones' product, has over 4,300 digits
        cells = [Fraction(1, 10**1200 + k) for k in (1, 3, 7, 9)]
        total = "4" + "0" * 59 + r"\.\.\. \(8,402 digits\)"
        with pytest.raises(InvalidTable, match=rf"^cells sum to {total}, expected exactly 1$"):
            JointTable(*cells)
        tiny = Fraction(1, 10**5000)
        cell = "-1/1" + "0" * 56 + r"\.\.\. \(5,002 digits\)"
        with pytest.raises(InvalidTable, match=rf"^cell p_pm = {cell} outside \[0, 1\]$"):
            JointTable(Fraction(1), -tiny, tiny, Fraction(0))

    def test_cells_must_be_probabilities(self):
        with pytest.raises(InvalidTable, match=r"^cell p_pp = 3/2 outside \[0, 1\]$"):
            JointTable("1.5", "-0.5", "0", "0")
        with pytest.raises(InvalidTable, match=r"^cell p_pm = -1/2 outside \[0, 1\]$"):
            JointTable(Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(0))

    def test_cell_lookup_by_signs(self):
        cell = dict(zip(CELLS, JointTable(".1", ".2", ".3", ".4").cells()))
        assert cell[(1, 1)] == Fraction(1, 10)
        assert cell[(1, -1)] == Fraction(2, 10)
        assert cell[(-1, 1)] == Fraction(3, 10)
        assert cell[(-1, -1)] == Fraction(4, 10)


class TestExpectation:
    def test_perfect_alignment_gives_one(self):
        # Table 2, treatment (a,b)
        assert expectation(JointTable(".5", "0", "0", ".5")) == 1

    def test_uniform_independence_gives_zero(self):
        assert expectation(uniform_table()) == 0

    def test_direct_signed_sum_of_observed_cells(self):
        # oracle: .049 - .630 - .259 + .062 = -.778
        t = JointTable(".049", ".630", ".259", ".062")
        assert expectation(t) == Fraction(-778, 1000)

    def test_expectation_identity_and_range(self):
        rng = random.Random(11)
        for _ in range(300):
            t = random_table(rng)
            e = expectation(t)
            assert -1 <= e <= 1
            assert e == 1 - 2 * (t.p_pm + t.p_mp)

    def test_flip_a_negates_expectation(self):
        rng = random.Random(12)
        for _ in range(100):
            t = random_table(rng)
            assert expectation(flip_a(t)) == -expectation(t)
            assert pr_a_plus(flip_a(t)) == 1 - pr_a_plus(t)
            assert expectation(flip_b(t)) == -expectation(t)
            assert pr_b_plus(flip_b(t)) == 1 - pr_b_plus(t)


class TestMarginals:
    def test_observed_margins(self):
        # Table 3 (a,b): row margin .679, column margin .308
        t = JointTable(".049", ".630", ".259", ".062")
        assert (pr_a_plus(t), pr_b_plus(t)) == (Fraction(679, 1000), Fraction(308, 1000))

    def test_uniform_margins(self):
        t = uniform_table()
        assert (pr_a_plus(t), pr_b_plus(t)) == (Fraction(1, 2), Fraction(1, 2))

    def test_asymmetric_margins(self):
        # Table 1 (a',b): margins .6 and .4
        t = JointTable(".25", ".35", ".15", ".25")
        assert (pr_a_plus(t), pr_b_plus(t)) == (Fraction(6, 10), Fraction(4, 10))

    def test_complementary_sums_add_to_one(self):
        rng = random.Random(13)
        for _ in range(200):
            t = random_table(rng)
            assert pr_a_plus(t) + (t.p_mp + t.p_mm) == 1
            assert pr_b_plus(t) + (t.p_pm + t.p_mm) == 1


class TestCounts:
    def test_from_counts_matches_rounded_table(self):
        # nearest-integer counts for Table 3 (a,b): round(81*p) per cell
        probs = [Fraction(x, 1000) for x in (49, 630, 259, 62)]
        counts = [round(81 * p) for p in probs]
        assert counts == [4, 51, 21, 5]
        table = CountTable(*counts).normalized()
        assert table.cells() == (
            Fraction(4, 81),
            Fraction(51, 81),
            Fraction(21, 81),
            Fraction(5, 81),
        )

    def test_point_mass_counts(self):
        assert CountTable(81, 0, 0, 0).normalized() == JointTable(1, 0, 0, 0)

    def test_symmetric_counts(self):
        assert CountTable(1, 1, 1, 1).normalized() == uniform_table()

    def test_from_counts_is_exact(self):
        rng = random.Random(14)
        for _ in range(200):
            cells = [rng.randint(0, 50) for _ in range(4)]
            if sum(cells) == 0:
                cells[0] = 1
            ct = CountTable(*cells)
            table = ct.normalized()
            assert tuple(c * ct.n for c in table.cells()) == ct.cells()

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            CountTable(0, 0, 0, 0)

    def test_negative_and_non_integer_counts_rejected(self):
        with pytest.raises(InvalidTable):
            CountTable(-1, 1, 1, 1)
        with pytest.raises(InvalidTable):
            CountTable(1.5, 1, 1, 1)
        with pytest.raises(InvalidTable):
            CountTable(True, 1, 1, 1)

    def test_total_capped_at_exact_float_integers(self):
        assert CountTable(2**53 - 3, 1, 1, 1).n == 2**53
        with pytest.raises(InvalidTable, match="2\\*\\*53"):
            CountTable(2**53 - 2, 1, 1, 1)


class TestExperimentData:
    def test_all_four_treatments_required(self):
        tables = {t: uniform_table() for t in TREATMENTS[:3]}
        with pytest.raises(InvalidValue, match="missing treatments"):
            ExperimentData(tables=tables)

    def test_counts_must_normalize_to_tables(self):
        tables = {t: uniform_table() for t in TREATMENTS}
        counts = {TREATMENTS[0]: CountTable(2, 1, 1, 1)}
        with pytest.raises(ConflictingData):
            ExperimentData(tables=tables, counts=counts)

    def test_conflicting_cells_too_long_to_print_are_named_not_printed(self):
        d = 10**2500
        cells = (Fraction(1, d + 1), Fraction(1, d + 3), Fraction(0), 1 - Fraction(1, d + 1) - Fraction(1, d + 3))
        tables = {t: uniform_table() for t in TREATMENTS} | {TREATMENTS[0]: JointTable(*cells)}
        counts = {TREATMENTS[0]: CountTable(1, 1, 1, 1)}
        small, large = "1/1" + "0" * 57 + r"\.\.\. \(2,502 digits\)", "1" + "0" * 59 + r"\.\.\. \(10,002 digits\)"
        table = f"{small}, {small}, 0, {large}"
        with pytest.raises(ConflictingData, match=rf"^treatment a,b: counts normalize to 1/4, 1/4, 1/4, 1/4 but table says {table}$"):
            ExperimentData(tables=tables, counts=counts)

    def test_independent_counts_flag_allows_mismatch(self):
        tables = {t: uniform_table() for t in TREATMENTS}
        counts = {TREATMENTS[0]: CountTable(2, 1, 1, 1)}
        data = ExperimentData(tables=tables, counts=counts, independent_counts=True)
        assert data.count(TREATMENTS[0]).n == 5
        assert not data.has_full_counts()

    def test_matching_counts_accepted(self):
        counts = {t: CountTable(1, 1, 1, 1) for t in TREATMENTS}
        tables = {t: c.normalized() for t, c in counts.items()}
        data = ExperimentData(tables=tables, counts=counts)
        assert data.has_full_counts()

    def test_counts_are_normalized_only_to_report_a_conflict(self, monkeypatch):
        counts = {t: CountTable(4, 3, 2, 1) for t in TREATMENTS}
        tables = {t: c.normalized() for t, c in counts.items()}
        calls = []
        original = CountTable.normalized
        monkeypatch.setattr(CountTable, "normalized", lambda self: calls.append(self) or original(self))
        ExperimentData(tables=tables, counts=counts)
        assert calls == []
        counts[TREATMENTS[2]] = CountTable(4, 3, 1, 2)
        with pytest.raises(ConflictingData, match="treatment a',b: counts normalize to"):
            ExperimentData(tables=tables, counts=counts)
        assert calls == [counts[TREATMENTS[2]]]


class TestLabelSet:
    def test_names_are_stored_with_pairs_as_tuples(self):
        labels = LabelSet(factors={"alpha": "animal"}, levels={"a": "Horse or Bear?"}, responses={"a": ["Horse", "Bear"]})
        assert labels.factors == {"alpha": "animal"}
        assert labels.levels == {"a": "Horse or Bear?"}
        assert labels.responses == {"a": ("Horse", "Bear")}
        assert labels.response_pair("a") == ("Horse", "Bear")

    @pytest.mark.parametrize(
        "section, mapping, message",
        [
            ("factors", {"gamma": "x"}, "unknown keys \\['gamma'\\] in labels.factors"),
            ("levels", {"c": "x"}, "unknown keys \\['c'\\] in labels.levels"),
            ("factors", {"alpha": None}, "labels.factors\\['alpha'\\] must be a nonempty string"),
            ("levels", {"a": ("x",)}, "labels.levels\\['a'\\] must be a nonempty string"),
            ("responses", {"a": ("Horse", None)}, "labels.responses\\['a'\\] must be a list of two"),
            ("responses", {"a": ("", "Bear")}, "labels.responses\\['a'\\] must be a list of two"),
            ("responses", {"a": "HB"}, "labels.responses\\['a'\\] must be a list of two"),
        ],
    )
    def test_bad_names_rejected(self, section, mapping, message):
        with pytest.raises(InvalidValue, match=message):
            LabelSet(**{section: mapping})


class TestTransforms:
    def transform_set(self):
        return [
            lambda d: flip_a_coding(d, "a"),
            lambda d: flip_a_coding(d, "a'"),
            lambda d: flip_a_coding(d),
            lambda d: flip_b_coding(d, "b"),
            lambda d: flip_b_coding(d, "b'"),
            lambda d: flip_b_coding(d),
            swap_alpha_levels,
            swap_beta_levels,
        ]

    def test_each_relabeling_is_an_involution(self):
        rng = random.Random(15)
        for _ in range(20):
            data = random_any_data(rng)
            for fn in self.transform_set():
                twice = fn(fn(data))
                assert all(twice.table(t) == data.table(t) for t in TREATMENTS)

    def test_flip_a_at_one_level_touches_only_that_level(self):
        rng = random.Random(16)
        data = random_any_data(rng)
        flipped = flip_a_coding(data, "a")
        for t in TREATMENTS:
            if t.alpha == "a":
                assert flipped.table(t) == flip_a(data.table(t))
            else:
                assert flipped.table(t) == data.table(t)

    def test_swap_alpha_exchanges_table_rows(self):
        rng = random.Random(17)
        data = random_any_data(rng)
        swapped = swap_alpha_levels(data)
        assert swapped.table(TREATMENTS[0]) == data.table(TREATMENTS[2])
        assert swapped.table(TREATMENTS[1]) == data.table(TREATMENTS[3])
        assert swapped.table(TREATMENTS[2]) == data.table(TREATMENTS[0])

    def test_flip_swaps_response_labels(self):
        labels = LabelSet(responses={"a": ("Horse", "Bear"), "b": ("Growls", "Whinnies")})
        tables = {t: uniform_table() for t in TREATMENTS}
        data = ExperimentData(tables=tables, labels=labels)
        flipped = flip_a_coding(data, "a")
        assert flipped.labels.responses["a"] == ("Bear", "Horse")
        assert flipped.labels.responses["b"] == ("Growls", "Whinnies")

    def test_counts_transform_alongside_tables(self):
        counts = {t: CountTable(4, 3, 2, 1) for t in TREATMENTS}
        tables = {t: c.normalized() for t, c in counts.items()}
        data = ExperimentData(tables=tables, counts=counts)
        flipped = flip_a_coding(data)
        for t in TREATMENTS:
            assert flipped.count(t).cells() == (2, 1, 4, 3)
            assert flipped.count(t).normalized() == flipped.table(t)


class TestMixing:
    def test_mix_is_cellwise_affine(self):
        rng = random.Random(18)
        a, b = random_any_data(rng), random_any_data(rng)
        lam = Fraction(3, 7)
        mixed = mix_experiments(a, b, lam)
        for t in TREATMENTS:
            for x, y, z in zip(mixed.table(t).cells(), a.table(t).cells(), b.table(t).cells()):
                assert x == lam * y + (1 - lam) * z

    def test_mix_weight_must_be_in_unit_interval(self):
        rng = random.Random(19)
        a, b = random_any_data(rng), random_any_data(rng)
        with pytest.raises(InvalidValue):
            mix_experiments(a, b, Fraction(3, 2))

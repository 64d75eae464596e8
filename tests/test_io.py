"""File parsing/serialization, report assembly, JSON round-trips, schema."""

import copy
import functools
import json
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import selinf.feasibility
import selinf.io
import selinf.model
import selinf.report
import selinf.selectivity
from selinf.chsh import SIGN_PATTERNS, classify_gamma
from selinf.errors import InvalidValue, ParseError, SelinfError
from selinf.feasibility import HIDDEN_STATES, predicted_tables, verify_witness
from selinf.io import (
    PROB_KEYS,
    AnalysisReport,
    analyze,
    parse_experiment,
    report_to_json_dict,
    serialize_experiment,
)
from selinf.cli import EXIT_INFEASIBLE, load_fixture_text, run_cli
from selinf.model import (
    LEVELS, TREATMENTS, CountTable, ExperimentData, JointTable, LabelSet, fraction_text, over_common_denominator,
)
from selinf.report import render_report_text, report_from_json_dict
from selinf.selectivity import MsTestResult
from selinf.simulate import Model, SampleSpec, parse_model, sample_counts

from conftest import (
    CROSS_MAP,
    large_denominator_documents,
    oversized_model_documents,
    random_any_data,
    random_hidden_distribution,
    random_ms_data,
)
from relabel import point_mass_distribution, signed_sum, uniform_distribution, uniform_table
from test_corpus_digest import corpus
from test_feasibility import selective_batch_cases

UNIFORM_BLOCK = {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"}
NEAR_ONE = r"^treatment a',b: cells sum to 999/1000 \(~0\.9990\); set \"renormalize\" to accept near-1 sums$"


def uniform_doc():
    return {"treatments": {t.key: dict(UNIFORM_BLOCK) for t in TREATMENTS}}


class TestParseExperiment:
    def test_golden_fixture_cells_are_exact(self, table3):
        table = table3.table(TREATMENTS[3])
        assert table.cells() == (
            Fraction(148, 1000),
            Fraction(86, 1000),
            Fraction(99, 1000),
            Fraction(667, 1000),
        )

    def test_uniform_document(self):
        data = parse_experiment(json.dumps(uniform_doc()))
        for t in TREATMENTS:
            assert data.table(t) == uniform_table()

    def test_each_probability_cell_is_read_once_unless_its_table_is_rejected(self, monkeypatch):
        # JointTable reads every cell; the parser reads again only the cells of a
        # table it rejects, here the a',b block, and hands the renormalized Fractions back
        original = selinf.model.integer_ratio
        calls = []

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(selinf.model, "integer_ratio", counting)
        doc = uniform_doc()
        doc["treatments"]["a',b"] = {"pp": ".778", "pm": ".086", "mp": ".086", "mm": ".049"}
        doc["renormalize"] = True
        data = parse_experiment(json.dumps(doc))
        renormalized = [Fraction(c, 999) for c in (778, 86, 86, 49)]
        assert len(calls) == 24 and calls[8:20] == [".778", ".086", ".086", ".049"] * 2 + renormalized
        assert calls[:8] + calls[20:] == [UNIFORM_BLOCK[ck] for ck in PROB_KEYS] * 3
        assert data.table(TREATMENTS[2]).cells() == tuple(
            Fraction(c, 999) for c in (778, 86, 86, 49)
        )

    def test_sum_not_one_without_flag(self):
        doc = uniform_doc()
        doc["treatments"]["a',b"] = {
            "pp": ".778", "pm": ".086", "mp": ".086", "mm": ".049",
        }
        with pytest.raises(ParseError, match=NEAR_ONE):
            parse_experiment(json.dumps(doc))
        doc["renormalize"] = True
        data = parse_experiment(json.dumps(doc))
        table = data.table(TREATMENTS[2])
        assert sum(table.cells()) == 1
        assert table.p_pp == Fraction(778, 999)

    def test_renormalize_flag_in_file(self):
        doc = uniform_doc()
        doc["treatments"]["a',b"] = {
            "pp": ".778", "pm": ".086", "mp": ".086", "mm": ".049",
        }
        doc["renormalize"] = True
        data = parse_experiment(json.dumps(doc))
        assert sum(data.table(TREATMENTS[2]).cells()) == 1
        doc["renormalize"] = False
        with pytest.raises(ParseError, match=NEAR_ONE):
            parse_experiment(json.dumps(doc))

    def test_renormalize_window_is_narrow(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": ".5", "pm": ".5", "mp": ".1", "mm": "0"}
        doc["renormalize"] = True
        with pytest.raises(ParseError, match=r"^treatment a,b: cells sum to 11/10 \(~1\.1000\), beyond the \+-0\.01"):
            parse_experiment(json.dumps(doc))

    def test_missing_treatment(self):
        doc = uniform_doc()
        del doc["treatments"]["a',b'"]
        with pytest.raises(ParseError, match="^treatment block \"a',b'\" is missing$"):
            parse_experiment(json.dumps(doc))

    def test_unknown_treatment_key(self):
        doc = uniform_doc()
        doc["treatments"]["a,c"] = dict(UNIFORM_BLOCK)
        with pytest.raises(ParseError):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize(
        "cell",
        ["abc", "-0.1", "1.2", None, [1]],
    )
    def test_bad_cells(self, cell):
        doc = uniform_doc()
        doc["treatments"]["a,b"]["pp"] = cell
        with pytest.raises(ParseError, match=r"^treatment a,b: cell pp\b"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize("cell", [float("nan"), float("inf")])
    def test_non_finite_number_cells(self, cell):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": cell, "pm": 0.5, "mp": 0.5, "mm": 0.0}
        with pytest.raises(ParseError, match="^treatment a,b: cell pp: cannot interpret"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize(
        "counts",
        [
            {"pp": 1, "pm": -1, "mp": 1, "mm": 1},
            {"pp": 0, "pm": 0, "mp": 0, "mm": 0},
            {"pp": 1.5, "pm": 1, "mp": 1, "mm": 1},
            {"pp": "1", "pm": 1, "mp": 1, "mm": 1},
        ],
    )
    def test_bad_nested_counts_name_the_treatment(self, counts):
        doc = uniform_doc()
        doc["treatments"]["a',b"]["counts"] = counts
        with pytest.raises(ParseError, match="treatment a',b: count"):
            parse_experiment(json.dumps(doc))

    def test_bad_count_block_names_the_treatment(self):
        doc = uniform_doc()
        doc["treatments"]["a,b'"] = {"pp": 0, "pm": 0, "mp": 0, "mm": 0}
        with pytest.raises(ParseError, match="treatment a,b': count"):
            parse_experiment(json.dumps(doc))

    def test_bad_json_text(self):
        with pytest.raises(ParseError):
            parse_experiment("{not json")

    @pytest.mark.parametrize("text", ['{"treatments": ' + "1" * 5000 + "}", "[" * 100000])
    def test_json_beyond_decoder_limits_is_a_parse_error(self, text):
        # an integer literal over Python's 4300-digit limit, and deep nesting
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_experiment(text)

    def test_huge_decimal_exponent_rejected_before_expansion(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": "1e-2000000", "pm": ".5", "mp": ".5", "mm": "0"}
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="treatment a,b: cell pp: decimal exponent"):
            parse_experiment(text)
        assert time.perf_counter() - start < 0.010

    def test_renormalized_tiny_cell_beyond_the_cap_is_a_bad_cell(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": "1e-5000", "pm": "0", "mp": "0", "mm": "1"}
        doc["renormalize"] = True
        with pytest.raises(ParseError, match="treatment a,b: cell pp: decimal exponent"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize("name", ["renormalized", "combined"])
    def test_large_common_denominators_are_bad_cells(self, name):
        with pytest.raises(ParseError, match="least common denominator exceeds 10\\*\\*2000"):
            parse_experiment(large_denominator_documents()[name])

    def test_common_denominator_is_capped_across_treatments_after_renormalizing(self):
        # each block is within the cap before and after renormalizing; the two together are not
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": "1e-1000", "pm": "0", "mp": "0", "mm": "1"}
        doc["treatments"]["a,b'"] = {"pp": "3e-1000", "pm": "0", "mp": "0", "mm": "1"}
        doc["renormalize"] = True
        with pytest.raises(ParseError, match="^treatments: the cells' least common denominator"):
            parse_experiment(json.dumps(doc))

    def test_error_messages_never_print_oversized_numbers(self):
        # a cell far above 1 with a 5,000-digit numerator, then four cells whose
        # sum (not 1) has a denominator of about 4,800 digits
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": "9" * 4000 + "e1000", "pm": "0", "mp": "0", "mm": "0"}
        with pytest.raises(ParseError, match="treatment a,b: cell pp = '9999.* outside"):
            parse_experiment(json.dumps(doc))
        doc["treatments"]["a,b"] = {ck: f"1/{10**1200 + k}" for ck, k in zip("pp pm mp mm".split(), (1, 3, 7, 9))}
        with pytest.raises(ParseError, match=r"^treatment a,b: cells sum to 40{59}\.\.\. \(8,402 digits\) \(~0.0000\); set"):
            parse_experiment(json.dumps(doc))

    def test_tables_of_1e_minus_1000_cells_parse_and_analyze(self):
        nines = "0." + "9" * 1000
        exact = uniform_doc()
        exact["treatments"] = {
            "a,b": {"pp": "1e-1000", "pm": "0", "mp": "0", "mm": nines},
            "a,b'": {"pp": nines, "pm": "1e-1000", "mp": "0", "mm": "0"},
            "a',b": {"pp": "0", "pm": "0", "mp": "1e-1000", "mm": nines},
            "a',b'": {"pp": "0", "pm": nines, "mp": "0", "mm": "1e-1000"},
        }
        renormalized = uniform_doc()
        for block in renormalized["treatments"].values():
            block.update(pp="1e-1000", pm="0", mp="0", mm="1")
        renormalized["renormalize"] = True
        for doc in (exact, renormalized):
            data = parse_experiment(json.dumps(doc))
            report = analyze(data)
            json.dumps(report_to_json_dict(report, include_witness=True))
            render_report_text(report, include_witness=True)
        assert data.table(TREATMENTS[0]).p_pp == Fraction(1, 10**1000 + 1)
        assert verify_witness(report.feasibility.witness, data)

    def test_counts_beyond_float_precision_are_bad_cells(self):
        doc = uniform_doc()
        doc["treatments"]["a',b'"] = {"pp": 10**400, "pm": 1, "mp": 1, "mm": 1}
        with pytest.raises(ParseError, match="treatment a',b': count table total exceeds"):
            parse_experiment(json.dumps(doc))

    def test_count_blocks(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": 4, "pm": 51, "mp": 21, "mm": 5, "n": 81}
        data = parse_experiment(json.dumps(doc))
        assert data.table(TREATMENTS[0]).p_pm == Fraction(51, 81)
        assert data.count(TREATMENTS[0]).cells() == (4, 51, 21, 5)

    def test_count_total_mismatch(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": 4, "pm": 51, "mp": 21, "mm": 5, "n": 80}
        with pytest.raises(ParseError, match="^treatment a,b: counts sum to 81 but n = 80$"):
            parse_experiment(json.dumps(doc))

    def test_mixed_cell_types_rejected(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": 1, "pm": ".5", "mp": ".25", "mm": ".25"}
        with pytest.raises(ParseError, match=r"^treatment a,b: mix of integer \(count\) and fractional"):
            parse_experiment(json.dumps(doc))

    def test_nested_counts_must_agree(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"]["counts"] = {"pp": 1, "pm": 1, "mp": 1, "mm": 1}
        data = parse_experiment(json.dumps(doc))
        assert data.count(TREATMENTS[0]).n == 4
        doc["treatments"]["a,b"]["counts"] = {"pp": 2, "pm": 1, "mp": 1, "mm": 1}
        with pytest.raises(ParseError, match="^treatment a,b: counts normalize to 2/5, 1/5, 1/5, 1/5 but table says 1/4, "):
            parse_experiment(json.dumps(doc))

    def test_nested_counts_carry_an_optional_total(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"]["counts"] = {"pp": 1, "pm": 1, "mp": 1, "mm": 1, "n": 4}
        assert parse_experiment(json.dumps(doc)).count(TREATMENTS[0]).n == 4
        doc["treatments"]["a,b"]["counts"]["n"] = 5
        with pytest.raises(ParseError, match="treatment a,b: counts sum to 4 but n = 5"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize(
        "block, error, message",
        [
            ({**UNIFORM_BLOCK, "n": 7}, ParseError, "unknown keys \\['n'\\]"),
            ({**UNIFORM_BLOCK, "n": "x"}, ParseError, "unknown keys \\['n'\\]"),
            ({**UNIFORM_BLOCK, "counts": [1, 1, 1, 1]}, ParseError, "counts must be a JSON object"),
            ({**UNIFORM_BLOCK, "counts": {"pp": 1, "pm": 1, "mp": 1}}, ParseError, "missing cells \\['mm'\\]"),
            ({**UNIFORM_BLOCK, "counts": {"pp": 1, "pm": 1, "mp": 1, "mm": 1, "x": 1}}, ParseError, "unknown keys \\['x'\\]"),
            ({"pp": 1, "pm": 1, "mp": 1, "mm": 1, "counts": {"pp": 1, "pm": 1, "mp": 1, "mm": 1}},
             ParseError, "unknown keys \\['counts'\\]"),
            ({"pp": 1, "pm": 1, "mp": 1, "mm": 1, "n": True}, ParseError, "n must be an integer"),
        ],
        ids=["n-int", "n-str", "counts-not-object", "counts-missing-cell", "counts-unknown-key", "counts-in-counts", "bool-n"],
    )
    def test_block_keys(self, block, error, message):
        # "n" belongs only beside counts; a probability block takes its cells and "counts"
        doc = uniform_doc()
        doc["treatments"]["a,b"] = block
        with pytest.raises(error, match=f"treatment a,b: {message}"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize(
        "section, value, message",
        [
            (None, {"zeta": 1, "alpha": 2}, "unknown top-level keys ['alpha', 'zeta']"),
            ("treatments", {"a,c": UNIFORM_BLOCK}, "unknown treatment keys ['a,c']"),
            ("labels", {"colors": {}, "factors": {}}, "unknown label sections ['colors']"),
            ("a,b", {"n": 4, "total": 1}, "treatment a,b: unknown keys ['n', 'total']"),
        ],
        ids=["top-level", "treatments", "label-sections", "block"],
    )
    def test_unknown_key_messages(self, section, value, message):
        doc = uniform_doc()
        if section is None:
            doc.update(value)
        elif section in doc["treatments"]:
            doc["treatments"][section].update(value)
        else:
            doc.setdefault(section, {}).update(value)
        with pytest.raises(ParseError) as info:
            parse_experiment(json.dumps(doc))
        assert str(info.value) == message

    def test_block_beyond_the_cap_that_sums_to_one_is_reported_over_all_treatments(self):
        # the block's own checks pass, so the cap is reported by the 16-cell check
        doc = uniform_doc()
        pp, mp = Fraction(1, 10**1200 + 1), Fraction(1, 10**1200 + 3)
        doc["treatments"]["a,b"] = {"pp": str(pp), "pm": "0", "mp": str(mp), "mm": str(1 - pp - mp)}
        with pytest.raises(ParseError) as info:
            parse_experiment(json.dumps(doc))
        assert str(info.value) == "treatments: the cells' least common denominator exceeds 10**2000"

    def test_independent_counts_flag(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"]["counts"] = {"pp": 2, "pm": 1, "mp": 1, "mm": 1}
        doc["independent_counts"] = True
        data = parse_experiment(json.dumps(doc))
        assert data.independent_counts
        assert data.table(TREATMENTS[0]) == uniform_table()

    @pytest.mark.parametrize("value", ["false", 0, None, [1]])
    @pytest.mark.parametrize("key", ["renormalize", "independent_counts"])
    def test_flags_accept_only_json_booleans(self, key, value):
        doc = uniform_doc()
        doc[key] = value
        with pytest.raises(ParseError, match=f'"{key}" must be JSON true or false'):
            parse_experiment(json.dumps(doc))

    def test_false_flags_are_read_as_false(self):
        near_one = uniform_doc()
        near_one["treatments"]["a,b"] = {"pp": ".2549", "pm": ".25", "mp": ".25", "mm": ".25"}
        near_one["renormalize"] = False
        with pytest.raises(ParseError, match=r"^treatment a,b: cells sum to 10049/10000 \(~1\.0049\); set"):
            parse_experiment(json.dumps(near_one))
        conflicting = uniform_doc()
        conflicting["treatments"]["a,b"] = {
            "pp": "1/2", "pm": "0", "mp": "0", "mm": "1/2",
            "counts": {"pp": 3, "pm": 0, "mp": 0, "mm": 1},
        }
        conflicting["independent_counts"] = False
        with pytest.raises(ParseError, match="^treatment a,b: counts normalize to 3/4, 0, 0, 1/4 but table says 1/2, 0, 0, 1/2$"):
            parse_experiment(json.dumps(conflicting))

    def test_float_cells_read_by_shortest_repr(self):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = {"pp": 0.049, "pm": 0.63, "mp": 0.259, "mm": 0.062}
        data = parse_experiment(json.dumps(doc))
        assert data.table(TREATMENTS[0]).p_pp == Fraction(49, 1000)

    def test_labels_parsed(self, table3):
        labels = table3.labels
        assert labels.factors["alpha"] == "animal choice"
        assert labels.responses["a'"] == ("Tiger", "Cat")
        assert labels.levels["b'"] == "Snorts or Meows?"

    def test_bad_labels(self):
        doc = uniform_doc()
        doc["labels"] = {"responses": {"q": ["x", "y"]}}
        with pytest.raises(ParseError):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize(
        "labels",
        [
            {"responses": {"a": [None, None]}},
            {"responses": {"a": ["Horse", ""]}},
            {"responses": {"a": "HB"}},
            {"responses": {"a": ["Horse", "Bear", "Cat"]}},
            {"levels": {"a": [1]}},
            {"levels": {"a": ""}},
            {"factors": {"alpha": 3}},
        ],
    )
    def test_label_names_must_be_nonempty_strings(self, labels):
        doc = uniform_doc()
        doc["labels"] = labels
        with pytest.raises(ParseError, match="bad labels: labels\\.\\w+\\['a(lpha)?'\\] must be"):
            parse_experiment(json.dumps(doc))

    @pytest.mark.parametrize("value", [["alpha"], "a", None])
    @pytest.mark.parametrize("section", ["factors", "levels", "responses"])
    def test_label_sections_must_be_objects(self, section, value):
        doc = uniform_doc()
        doc["labels"] = {section: value}
        with pytest.raises(ParseError, match=f"labels.{section} must be a JSON object"):
            parse_experiment(json.dumps(doc))


PINNED_BLOCKS = [
    # non-reduced cells read as their reduced value
    (["2/4", "1/4", "1/8", "1/8"], False, ("1/2", "1/4", "1/8", "1/8")),
    (["2/4", "2/4", "0/3", "0/3"], False, ("1/2", "1/2", "0", "0")),
    (["5/5", "0", "0", "0/5"], False, ("1", "0", "0", "0")),
    (["1/0", ".5", ".5", "0"], False, (ParseError, "treatment a,b: cell pp: cannot interpret '1/0' as a rational")),
    (["0/0", ".5", ".5", "0"], False, (ParseError, "treatment a,b: cell pp: cannot interpret '0/0' as a rational")),
    (["1/2", "1/0", "abc", "0"], False, (ParseError, "treatment a,b: cell pm: cannot interpret '1/0' as a rational")),
    # JSON numbers go through their shortest repr, exponents included
    ([0.25, 0.5, 0.125, 0.125], False, ("1/4", "1/2", "1/8", "1/8")),
    ([0.1, 0.2, 0.3, 0.4], False, ("1/10", "1/5", "3/10", "2/5")),
    ([2.5e-1, 2.5e-1, 0.25, 25e-2], False, ("1/4", "1/4", "1/4", "1/4")),
    ([1.5, 0.5, 0.0, 0.0], False, (ParseError, "treatment a,b: cell pp = 1.5 outside [0, 1]")),
    ([True, ".5", ".5", "0"], False, (ParseError, "treatment a,b: cell pp must be numeric, got True")),
    # decimal strings and exponents
    ([".049", ".630", ".259", ".062"], False, ("49/1000", "63/100", "259/1000", "31/500")),
    (["2.5e-1", "25E-2", ".25", "0.2500"], False, ("1/4", "1/4", "1/4", "1/4")),
    (["1.5", "-.5", "0", "0"], False, (ParseError, "treatment a,b: cell pp = '1.5' outside [0, 1]")),
    (["-0.1", "abc", "0", "0"], False, (ParseError, "treatment a,b: cell pm: cannot interpret 'abc' as a rational")),
    (["1e-1001", ".5", ".5", "0"], False, (ParseError, "treatment a,b: cell pp: decimal exponent beyond +-1000")),
    (["1e1001", ".5", ".5", "0"], False, (ParseError, "treatment a,b: cell pp: decimal exponent beyond +-1000")),
    # the renormalize window, +-0.01 inclusive
    ([".5", ".5", ".01", "0"], True, ("50/101", "50/101", "1/101", "0")),
    ([".5", ".49", "0", "0"], True, ("50/99", "49/99", "0", "0")),
    (
        [".5", ".5", ".011", "0"], True,
        (ParseError, "treatment a,b: cells sum to 1011/1000 (~1.0110), beyond the +-0.01 renormalization window"),
    ),
    (
        [".5", ".489", "0", "0"], True,
        (ParseError, "treatment a,b: cells sum to 989/1000 (~0.9890), beyond the +-0.01 renormalization window"),
    ),
    (
        [".5", ".5", ".01", "0"], False,
        (ParseError, 'treatment a,b: cells sum to 101/100 (~1.0100); set "renormalize" to accept near-1 sums'),
    ),
    ([".5", ".5", "-.01", ".01"], True, (ParseError, "treatment a,b: cell mp = '-.01' outside [0, 1]")),
]


class TestPinnedCellMessages:
    """What each kind of a,b cell parses to, or the exact line it is rejected with."""

    @pytest.mark.parametrize("cells, renormalize, expected", PINNED_BLOCKS)
    def test_block(self, cells, renormalize, expected):
        doc = uniform_doc()
        doc["treatments"]["a,b"] = dict(zip(PROB_KEYS, cells))
        if renormalize:
            doc["renormalize"] = True
        if isinstance(expected[0], str):
            data = parse_experiment(json.dumps(doc))
            assert tuple(map(str, data.table(TREATMENTS[0]).cells())) == expected
            numerators, lcd = over_common_denominator(data.table(TREATMENTS[0]).cells())
            assert data.table(TREATMENTS[0]).scaled_cells == (*numerators, lcd)
            numerators, lcd = over_common_denominator(c for t in TREATMENTS for c in data.table(t).cells())
            assert data.scaled_cells == (*numerators, lcd)
        else:
            error, message = expected
            with pytest.raises(error) as caught:
                parse_experiment(json.dumps(doc))
            assert type(caught.value) is error and str(caught.value) == message


class TestRoundTrip:
    def test_fixtures_round_trip(self, table1, table2, table3):
        for data in (table1, table2, table3):
            assert parse_experiment(serialize_experiment(data)) == data

    def test_random_data_round_trips(self):
        rng = random.Random(81)
        for _ in range(30):
            data = random_any_data(rng)
            assert parse_experiment(serialize_experiment(data)) == data

    def test_sampled_counts_round_trip(self):
        model = Model(uniform_distribution())
        sampled = sample_counts(model, SampleSpec(64, 3))
        assert parse_experiment(serialize_experiment(sampled)) == sampled

    def test_fraction_strings_on_output(self):
        data = parse_experiment(json.dumps(uniform_doc()))
        doc = json.loads(serialize_experiment(data))
        assert doc["treatments"]["a,b"]["pp"] == "1/4"

    def test_cells_print_as_their_fractions_print(self):
        # cells 0 and 1, and cells over an unreduced common denominator, as sampled counts give them
        rng = random.Random(24)
        datas = [predicted_tables(point_mass_distribution("+-+-")), predicted_tables(uniform_distribution())]
        for i in range(40):
            model = Model(random_hidden_distribution(rng))
            datas.append(sample_counts(model, SampleSpec(rng.choice([1, 2, 6, 10, 100, 1000]), i)))
        printed = set()
        for data in datas:
            doc = json.loads(serialize_experiment(data))
            for t in TREATMENTS:
                cells = [doc["treatments"][t.key][k] for k in PROB_KEYS]
                assert cells == [str(cell) for cell in data.table(t).cells()]
                printed.update(cells)
        assert {"0", "1", "1/2"} <= printed


class TestParseModel:
    def test_selective(self):
        model = parse_model('{"hidden": {"++++": "1/2", "----": ".5"}}')
        assert model.cross_map is None
        assert model.hidden.weights[0] == Fraction(1, 2)

    def test_contaminated(self):
        doc = {
            "hidden": {"++++": "1"},
            "eta": "1/10",
            "cross_map": {"a,b": "++", "a,b'": "+-", "a',b": "-+", "a',b'": "--"},
        }
        model = parse_model(json.dumps(doc))
        assert model.cross_map is not None
        assert model.eta == Fraction(1, 10)
        assert model.cross_map[TREATMENTS[1]] == (1, -1)

    def test_eta_without_cross_map(self):
        with pytest.raises(ParseError):
            parse_model('{"hidden": {"++++": "1"}, "eta": "0.5"}')

    @pytest.mark.parametrize("eta", ["-1/2", "3/2"])
    @pytest.mark.parametrize("cross_map", [None, CROSS_MAP])
    def test_eta_outside_the_unit_interval_is_a_range_error(self, eta, cross_map):
        doc = {"hidden": {"++++": "1"}, "eta": eta}
        if cross_map is not None:
            doc["cross_map"] = cross_map
        with pytest.raises(ParseError, match=f"^eta must be in \\[0, 1\\], got {eta}$"):
            parse_model(json.dumps(doc))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParseError):
            parse_model('{"hidden": {"++++": "0.7"}}')

    def test_bad_state_string(self):
        with pytest.raises(ParseError):
            parse_model('{"hidden": {"+++x": "1"}}')

    def test_cross_map_errors_come_before_the_range_of_eta(self):
        # Model checks eta's range once, after the cross_map is read
        doc = {"hidden": {"++++": "1"}, "eta": "3/2", "cross_map": {**CROSS_MAP, "a,c": "++"}}
        with pytest.raises(ParseError, match="^unknown treatment key 'a,c'$"):
            parse_model(json.dumps(doc))

    def test_unknown_top_level_keys(self):
        with pytest.raises(ParseError) as info:
            parse_model('{"hidden": {"++++": "1"}, "beta": 1, "alpha": 2}')
        assert str(info.value) == "unknown top-level keys ['alpha', 'beta']"

    @pytest.mark.parametrize(
        "name, message",
        [
            ("hidden-denominators", "hidden: a numerator or the least common denominator exceeds 10\\*\\*2000"),
            ("hidden-numerator", "hidden: a numerator or the least common denominator exceeds 10\\*\\*2000"),
            ("eta-numerator", "eta: numerator or denominator exceeds 10\\*\\*2000"),
        ],
    )
    def test_oversized_weights_and_eta_are_rejected_before_building(self, name, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_model(oversized_model_documents()[name])

    def test_weights_and_eta_at_the_cap_are_accepted(self):
        cap = 10**2000
        doc = {"hidden": {"++++": f"1/{cap}", "----": f"{cap - 1}/{cap}"}, "eta": f"1/{cap}", "cross_map": CROSS_MAP}
        model = parse_model(json.dumps(doc))
        assert model.eta == Fraction(1, cap)
        assert model.hidden.weights[0] == Fraction(1, cap)

    @pytest.mark.parametrize(
        "cross_map, message",
        [
            ({k: v for k, v in CROSS_MAP.items() if k != "a',b'"}, "cross_map must give an outcome pair for all four"),
            ({**CROSS_MAP, "a,c": "++"}, "unknown treatment key 'a,c'"),
            ({**CROSS_MAP, "a,b": "+x"}, "cross_map\\['a,b'\\] must be 2 of \\+/-"),
            (["++", "+-", "-+", "--"], "cross_map must be a JSON object"),
            (None, "cross_map must be a JSON object"),
        ],
    )
    def test_bad_cross_maps(self, cross_map, message):
        doc = {"hidden": {"++++": "1"}, "eta": "1/10", "cross_map": cross_map}
        with pytest.raises(ParseError, match=message):
            parse_model(json.dumps(doc))
        del doc["eta"]  # at eta = 0 a present map is still read, never taken for an absent one
        with pytest.raises(ParseError, match=message):
            parse_model(json.dumps(doc))


# every JSON value type; mapped, so that one_of picks it as one branch rather than eight
JSON_VALUES = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str),
    st.integers(-2, 3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1),
).map(lambda value: value)
# weights k_i / sum(k) on the first states, a distribution
HIDDEN_DISTRIBUTIONS = st.lists(st.integers(1, 5), min_size=1, max_size=16).map(
    lambda ks: {state: f"{k}/{sum(ks)}" for state, k in zip(HIDDEN_STATES, ks)}
)
SIGN_PAIRS = st.one_of(st.sampled_from(["++", "+-", "-+", "--"]), JSON_VALUES)
HIDDEN_VALUES = st.dictionaries(st.one_of(st.sampled_from(HIDDEN_STATES), st.text(max_size=5)), JSON_VALUES, max_size=3)
# the hidden weights alone, of any shape; or a distribution, with eta and cross_map of any shape
MODEL_DOCUMENTS = (HIDDEN_VALUES | JSON_VALUES).map(lambda hidden: {"hidden": hidden}) | st.fixed_dictionaries(
    {"hidden": HIDDEN_DISTRIBUTIONS},
    optional={
        "eta": st.one_of(st.sampled_from(["0", "1/10", "1"]), JSON_VALUES),
        "cross_map": st.one_of(
            st.fixed_dictionaries({key: SIGN_PAIRS for key in CROSS_MAP}),
            st.dictionaries(st.one_of(st.sampled_from(list(CROSS_MAP)), st.text(max_size=5)), SIGN_PAIRS, max_size=5),
            JSON_VALUES,
        ),
    },
)
TREATMENT_KEYS = [t.key for t in TREATMENTS]
DELETED = object()  # an edit that removes the key
# valid probability blocks; the two with a 1,501-digit denominator exceed the 10**2000 cap together
VALID_BLOCKS = st.sampled_from([
    UNIFORM_BLOCK,
    {"pp": "1/2", "pm": "0", "mp": "0", "mm": "1/2"},
    {"pp": 0.5, "pm": 0.5, "mp": 0.0, "mm": 0.0},
    *({"pp": f"1/{d}", "pm": "0", "mp": "0", "mm": f"{d - 1}/{d}"} for d in (10**1500 + 1, 10**1500 + 3)),
])
COUNT_BLOCKS = st.fixed_dictionaries(dict.fromkeys(PROB_KEYS, st.integers(0, 3)))
LABEL_SECTIONS = st.fixed_dictionaries({}, optional={
    "factors": st.dictionaries(st.sampled_from(["alpha", "beta", "gamma"]), JSON_VALUES, max_size=2),
    "levels": st.dictionaries(st.sampled_from(["a", "b'", "c"]), JSON_VALUES, max_size=2),
    "responses": st.dictionaries(st.sampled_from(["a", "a'"]), st.lists(st.text(max_size=2), max_size=3) | JSON_VALUES),
})
# the parts of a document an edit sets to another value or removes
EDIT_PATHS = st.sampled_from([
    ("treatments",), ("labels",), ("renormalize",), ("independent_counts",), ("zeta",),
    *(("treatments", key) for key in [*TREATMENT_KEYS, "a,c"]),
    *(("treatments", key, ck) for key in TREATMENT_KEYS for ck in [*PROB_KEYS, "n", "counts"]),
    *(("treatments", key, "counts", ck) for key in TREATMENT_KEYS for ck in [*PROB_KEYS, "n"]),
])
EDIT_VALUES = st.one_of(JSON_VALUES, st.sampled_from(["1e-1001", "1/0", ".2549", "0", DELETED]), COUNT_BLOCKS)


@st.composite
def experiment_documents(draw):
    """Four valid blocks, some with counts, maybe flags and labels; then up to two parts set to any value or removed."""
    blocks = {key: {**draw(VALID_BLOCKS)} for key in TREATMENT_KEYS}
    for key in draw(st.sets(st.sampled_from(TREATMENT_KEYS))):
        blocks[key]["counts"] = draw(COUNT_BLOCKS)
    doc = {"treatments": blocks, **draw(st.fixed_dictionaries({}, optional={
        "labels": LABEL_SECTIONS, "renormalize": st.booleans(), "independent_counts": st.booleans(),
    }))}
    for path, value in draw(st.lists(st.tuples(EDIT_PATHS, EDIT_VALUES), max_size=2)):
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict) and value is DELETED:
            parent.pop(path[-1], None)
        elif isinstance(parent, dict):
            parent[path[-1]] = value
    return doc


class TestParsersRaiseOnlyParseError:
    """A document a parser rejects is a ``ParseError``, also where a record it builds raises ``InvalidValue``."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(experiment_documents())
    def test_experiment_documents(self, doc):
        try:
            parse_experiment(json.dumps(doc))
        except ParseError:
            pass

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(MODEL_DOCUMENTS)
    def test_model_documents(self, doc):
        try:
            parse_model(json.dumps(doc))
        except ParseError:
            pass


# Block denominators below, at and above the 10**2000 cap; pairs of them, and
# renormalizing, give common denominators on both sides of it.
CAP_DENOMINATORS = (10**3 + 7, 10**999 + 9, 10**1000 + 1, 10**1999 + 3, 10**2000 - 1, 10**2000, 10**2000 + 1, 10**2400 + 3)
CAP_MESSAGE = "treatments: the cells' least common denominator exceeds 10**2000"


def cap_block(kind, d, e):
    """Uniform cells; exact cells 1/d, 0, 0, 1 - 1/d; or cells 1/d, 0, 1/e, 1, which need renormalizing."""
    if kind == "uniform":
        return [Fraction(1, 4)] * 4
    if kind == "exact":
        return [Fraction(1, d), Fraction(0), Fraction(0), 1 - Fraction(1, d)]
    return [Fraction(1, d), Fraction(0), Fraction(1, e), Fraction(1)]


class TestCommonDenominatorCap:
    """The parser and ``analyze`` reject the same data: 16 cells whose common denominator exceeds 10**2000."""

    def test_library_data_beyond_the_cap_is_rejected_by_analyze(self):
        pp, pm = Fraction(1, 10**2500 + 1), Fraction(1, 10**2500 + 3)
        tables = dict.fromkeys(TREATMENTS, uniform_table())
        tables[TREATMENTS[0]] = JointTable(pp, pm, Fraction(0), 1 - pp - pm)
        with pytest.raises(InvalidValue) as info:
            analyze(ExperimentData(tables=tables))
        assert str(info.value) == CAP_MESSAGE

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["uniform", "exact", "renormalized"]),
                st.sampled_from(CAP_DENOMINATORS),
                st.sampled_from(CAP_DENOMINATORS),
            ),
            min_size=4,
            max_size=4,
        )
    )
    @example([("exact", 10**2000, 1)] * 4)  # at the cap
    @example([("exact", 10**2000 + 1, 1)] + [("uniform", 1, 1)] * 3)  # one block just above it
    @example([("exact", 10**999 + 9, 1), ("exact", 10**1000 + 1, 1)] * 2)  # two blocks, below it together
    @example([("renormalized", 10**999 + 9, 10**1000 + 1)] + [("uniform", 1, 1)] * 3)  # below it after renormalizing
    def test_parse_and_analyze_apply_the_same_cap(self, blocks):
        cells = [cap_block(*block) for block in blocks]
        doc = {
            "treatments": {t.key: dict(zip(PROB_KEYS, map(str, cs))) for t, cs in zip(TREATMENTS, cells)},
            "renormalize": True,
        }
        tables = {t: JointTable(*(c / sum(cs) for c in cs)) for t, cs in zip(TREATMENTS, cells)}
        data = ExperimentData(tables=tables)
        over = math.lcm(*(c.denominator for table in tables.values() for c in table.cells())) > 10**2000
        if over:
            with pytest.raises(ParseError) as parsed:
                parse_experiment(json.dumps(doc))
            with pytest.raises(InvalidValue) as analyzed:
                analyze(data)
            assert str(parsed.value) == str(analyzed.value) == CAP_MESSAGE
            return
        parsed = parse_experiment(json.dumps(doc))
        assert parsed == data
        assert parse_experiment(serialize_experiment(parsed)) == data
        report = analyze(parsed)
        json.dumps(report_to_json_dict(report, include_witness=True))
        render_report_text(report, include_witness=True)


class TestAnalyzeAssembly:
    def test_significance_runs_only_with_full_counts(self, table1, table3):
        assert analyze(table1).ms_tests is None
        assert analyze(table3).ms_tests is not None

    def test_tolerance_flows_through(self, table1, tmp_path, capsys):
        loose = analyze(table1, tolerance=Fraction(1, 4))
        assert loose.marginals.satisfied
        assert not loose.feasibility.feasible  # solver still exact
        # one table of the uniform push-forward moves 1/8 from mp to pp: only
        # Pr(A=+1) under (a,b) moves, and every facet stays at most 2
        delta = Fraction(1, 8)
        tables = dict(predicted_tables(uniform_distribution()).tables)
        tables[TREATMENTS[0]] = JointTable(Fraction(3, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4))
        shifted = ExperimentData(tables=tables)
        report = analyze(shifted, tolerance=delta)
        assert [c.delta for c in report.marginals.comparisons] == [delta, 0, 0, 0]
        assert report.marginals.satisfied and report.chsh.gamma <= 2
        assert not report.feasibility.feasible
        assert report.feasibility.certificate == report.marginals.comparisons[0]
        path = tmp_path / "shifted.json"
        path.write_text(serialize_experiment(shifted))
        assert run_cli(["analyze", str(path), "--tolerance", "1/8"]) == EXIT_INFEASIBLE
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_each_report_is_built_once(self, table1, table2, table3, monkeypatch):
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        call_sites = {
            "compute_gamma": (selinf.io, selinf.feasibility),
            "check_marginal_selectivity": (selinf.io, selinf.feasibility, selinf.selectivity),
        }
        for name, modules in call_sites.items():
            wrapper = counted(name, getattr(selinf.io, name))
            for module in modules:
                monkeypatch.setattr(module, name, wrapper)
        feasible = predicted_tables(random_hidden_distribution(random.Random(83)))
        for data in (table1, table2, table3, feasible):
            calls.clear()
            analyze(data)
            assert calls == {"compute_gamma": 1, "check_marginal_selectivity": 1}

    @pytest.mark.parametrize(
        "edit", [lambda tests: (), lambda tests: tests[:3], lambda tests: tests[::-1], lambda tests: tests + tests[:1]],
        ids=["none", "three", "reversed", "five"],
    )
    def test_tests_are_absent_or_one_per_comparison_in_order(self, table3, edit):
        r = analyze(table3)
        with pytest.raises(InvalidValue, match="^ms_tests must hold one test per marginal comparison, in their order$"):
            AnalysisReport(r.chsh, r.marginals, edit(r.ms_tests), r.feasibility)
        assert AnalysisReport(r.chsh, r.marginals, None, r.feasibility).ms_tests is None

    def test_tests_at_two_significance_levels_are_rejected(self, table3):
        r = analyze(table3)
        first = r.ms_tests[0]
        tests = (MsTestResult(first.comparison, 81, 81, 0.2), *r.ms_tests[1:])
        with pytest.raises(InvalidValue) as caught:
            AnalysisReport(r.chsh, r.marginals, tests, r.feasibility)
        assert str(caught.value) == "ms_tests disagree on alpha_sig: 0.2 and 0.05"
        assert {t.alpha_sig for t in analyze(table3, bonferroni=True).ms_tests} == {0.0125}

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("slot", range(2))
    def test_a_treatment_with_two_sample_sizes_is_rejected(self, table3, index, slot):
        # each treatment is in two tests, one at alpha's level and one at beta's, which come later
        r = analyze(table3)
        test = r.ms_tests[index]
        sizes = [test.n_first, test.n_second]
        sizes[slot] = 88
        tests = list(r.ms_tests)
        tests[index] = MsTestResult(test.comparison, *sizes, test.alpha_sig)
        with pytest.raises(InvalidValue) as caught:
            AnalysisReport(r.chsh, r.marginals, tuple(tests), r.feasibility)
        seen = "88 and 81" if index < 2 else "81 and 88"
        assert str(caught.value) == f"ms_tests disagree on n({test.comparison.treatments[slot]}): {seen}"


def expectation_five(doc):
    """E[A*B | a,b] set to 5, and the sums, gamma and facets it fixes rendered again."""
    chsh = doc["chsh"]
    chsh["expectations"]["a,b"] = "5"
    sums = {p: signed_sum(p, map(Fraction, chsh["expectations"].values())) for p in SIGN_PATTERNS}
    gamma = max(sums.values())
    chsh.update(sums={p: str(v) for p, v in sums.items()}, gamma=str(gamma), gamma_decimal=f"{float(gamma):.3f}")
    chsh.update(argmax_patterns=[p for p, v in sums.items() if v == gamma], classification=classify_gamma(gamma))
    facets = [{"kind": "chsh_facet", "pattern": p, "value": str(v)} for p, v in sums.items() if v > 2]
    doc["feasibility"]["all_violations"] += facets


def uniform_witness(doc):
    """The witness of 1/16 on every state, which gives the uniform tables but is not the one the program writes."""
    doc["feasibility"]["witness"] = {state: str(w) for state, w in zip(HIDDEN_STATES, uniform_distribution().weights)}


def certificate_contradicted(doc):
    """A marginal certificate its own comparisons contradict, with no violation listed."""
    doc["feasibility"]["certificate"].update(p_under_first="1/7", delta="0")
    doc["feasibility"]["all_violations"] = []


def gamma_zero_and_feasible(doc):
    """Gamma 0, classical and feasible with no certificate, next to violated marginals."""
    doc["chsh"].update(gamma="0", classification="classical-bound-satisfied")
    doc["feasibility"].update(verdict="feasible", certificate=None, all_violations=[])


# label names with non-ASCII, quote, backslash and control characters, or any text
LABEL_NAMES = st.text(st.sampled_from('aZ "\\\x00\x1f\x7f\n\u00e9\u2603\U0001f600'), min_size=1, max_size=4) | st.text(
    min_size=1, max_size=3
)
COUNT_TABLES = st.tuples(*[st.integers(0, 40)] * 4).filter(any).map(lambda cells: CountTable(*cells))
# label sets, each section absent, empty or of any names
LABEL_SETS = st.builds(
    LabelSet,
    factors=st.none() | st.dictionaries(st.sampled_from(["alpha", "beta"]), LABEL_NAMES),
    levels=st.none() | st.dictionaries(st.sampled_from(LEVELS), LABEL_NAMES),
    responses=st.none() | st.dictionaries(st.sampled_from(LEVELS), st.tuples(LABEL_NAMES, LABEL_NAMES)),
)


@st.composite
def counted_experiments(draw):
    """Counts for all, some or no treatments; tables from the counts or, with independent_counts, any; maybe labels."""
    counted = draw(st.just(TREATMENTS) | st.sets(st.sampled_from(TREATMENTS)))
    counts = {t: draw(COUNT_TABLES) for t in counted}
    independent = draw(st.booleans())
    tables = {t: (draw(COUNT_TABLES) if independent or t not in counts else counts[t]).normalized() for t in TREATMENTS}
    return ExperimentData(tables, counts or None, draw(st.none() | LABEL_SETS), independent)


UNICODE_LABELS = LabelSet({"alpha": "\u00e9t\u00e9", "beta": '"q"\n'}, {}, {"a": ("\u2603", "\x00\\")})


class TestJsonWriter:
    """Every JSON document the program prints is the text ``json.dumps(document, indent=2)`` gives."""

    @staticmethod
    def assert_written_as_json_dumps_writes(data):
        text = serialize_experiment(data)
        assert text == json.dumps(json.loads(text), indent=2)
        report = analyze(data)
        for include_witness in (True, False):
            doc = report_to_json_dict(report, include_witness=include_witness)
            assert selinf.io._json(doc) == json.dumps(doc, indent=2)

    def test_every_corpus_document_and_report_with_and_without_its_witness(self):
        for data in corpus():
            self.assert_written_as_json_dumps_writes(data)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(counted_experiments())
    @example(ExperimentData(  # full counts, one treatment degenerate, non-ASCII labels and an empty section
        {t: CountTable(3, 0, 0, 0).normalized() for t in TREATMENTS},
        {t: CountTable(3, 0, 0, 0) if t.index else CountTable(1, 2, 0, 5) for t in TREATMENTS},
        UNICODE_LABELS, True,
    ))
    def test_generated_experiments_and_their_reports(self, data):
        self.assert_written_as_json_dumps_writes(data)

    def test_scalars_and_empty_containers(self):
        values = ["\u00e9\"\\\x01", 0, -7, 2**70, 0.1, -0.0, 1e300, float("inf"), float("nan"), True, False, None]
        doc = {"scalars": values, "empty": [{}, [], ()], "nested": {"pair": ("a", "b"), "deep": [[{"x": [1]}]]}}
        assert selinf.io._json(doc) == json.dumps(doc, indent=2)
        for value in [*values, {}, [], ()]:
            assert selinf.io._json(value) == json.dumps(value, indent=2)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-1, 1), st.booleans(), st.none(), st.integers()), max_size=4))
    def test_floats_booleans_and_null(self, values):
        # json writes a finite float as float.__repr__, and NaN and the infinities by name
        for value in [values, *values]:
            assert selinf.io._json(value) == json.dumps(value, indent=2)


class TestFractionText:
    """Each rational printed from its integers is ``str`` of its ``Fraction``; the text report's form of it is what
    its renderer wrote for that ``Fraction``: the text alone for an integer, else the text then ~ the float."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(), st.one_of(st.just(1), st.integers(1, 10**6), st.integers(min_value=1)), st.integers(1, 10**6))
    @example(0, 7, 1)
    @example(-6, 4, 1)
    @example(-8, 4, 3)
    @example(-5, 1, 1)
    @example(2**70 + 1, 3 * 2**70, 1)
    def test_is_the_fraction_s_str(self, p, q, k):
        value = Fraction(p, q)
        for scaled in ((p, q), (k * p, k * q)):  # in lowest terms or not
            assert fraction_text(*scaled) == str(value)
            old_text_form = str(value) if value.denominator == 1 else f"{value} (~{float(value):.4f})"
            assert selinf.report._fmt(*scaled) == old_text_form


class TestReportJson:
    def feasible_report(self):
        rng = random.Random(82)
        data = predicted_tables(random_hidden_distribution(rng))
        return analyze(data), data

    def test_round_trip_through_json_text(self, table1, table2, table3):
        for data in (table1, table2, table3):
            report = analyze(data)
            doc = json.loads(json.dumps(report_to_json_dict(report)))
            assert report_from_json_dict(doc) == report

    def test_round_trip_with_witness(self):
        report, _ = self.feasible_report()
        doc = json.loads(json.dumps(report_to_json_dict(report, include_witness=True)))
        rebuilt = report_from_json_dict(doc)
        assert rebuilt.feasibility.witness == report.feasibility.witness

    def test_witness_whose_sum_is_too_long_to_print_is_rejected(self):
        # the reader compares the witness with the one the program writes, and never reads it as weights
        report, _ = self.feasible_report()
        doc = report_to_json_dict(report, include_witness=True)
        doc["feasibility"]["witness"] = {s: f"1/{10**1200 + k}" for s, k in zip(("++++", "+-+-", "-+-+", "----"), (1, 3, 7, 9))}
        with pytest.raises(ParseError) as caught:
            report_from_json_dict(doc)
        assert type(caught.value) is ParseError
        assert str(caught.value) == "malformed report: feasibility disagrees with the report's own inputs"

    def test_witness_only_on_request(self):
        report, _ = self.feasible_report()
        assert report_to_json_dict(report)["feasibility"]["witness"] is None
        assert (
            report_to_json_dict(report, include_witness=True)["feasibility"]["witness"]
            is not None
        )

    def test_rationals_encoded_as_fraction_strings(self, table3):
        doc = report_to_json_dict(analyze(table3))
        assert doc["chsh"]["gamma"] == "1209617/499500"
        assert doc["chsh"]["expectations"]["a,b"] == "-389/500"

    def test_wrong_format_rejected(self):
        with pytest.raises(ParseError):
            report_from_json_dict({"format": "something-else/9"})

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("marginal_selectivity", "tolerance", None, "KeyError('tolerance')"),
            ("chsh", "gamma", None, "chsh disagrees with the report's own inputs"),
            ("chsh", "gamma", "abc", "chsh disagrees with the report's own inputs"),
            ("chsh", "sums", ["1/2"], "chsh disagrees with the report's own inputs"),
            ("chsh", "expectations", ["1/2"], "TypeError('list indices must be integers or slices, not str'... (61 characters)"),
        ],
        ids=["marginal_selectivity-tolerance-missing", "chsh-gamma-missing", "chsh-gamma-abc", "chsh-sums-list", "chsh-expectations-list"],
    )
    def test_malformed_reports_are_one_line_parse_errors(self, table1, section, key, value, message):
        doc = json.loads(json.dumps(report_to_json_dict(analyze(table1))))
        if value is None:
            del doc[section][key]
        else:
            doc[section][key] = value
        with pytest.raises(ParseError) as caught:
            report_from_json_dict(doc)
        assert str(caught.value) == f"malformed report: {message}"

    def sampled_doc(self, table3):
        """The JSON report of table 3, which carries counts, so tests, and four marginal violations."""
        return json.loads(json.dumps(report_to_json_dict(analyze(table3))))

    @pytest.mark.parametrize(
        "where, section",
        [
            (lambda doc: doc["marginal_selectivity"]["comparisons"][2], "marginal_selectivity"),
            (lambda doc: doc["statistical_tests"][1]["comparison"], "statistical_tests"),
            (lambda doc: doc["feasibility"]["certificate"], "feasibility"),
            (lambda doc: doc["feasibility"]["all_violations"][3], "feasibility"),
        ],
        ids=["comparisons", "statistical_tests", "certificate", "all_violations"],
    )
    def test_a_response_its_level_does_not_fix_is_rejected(self, table3, where, section):
        doc = self.sampled_doc(table3)
        comp = where(doc)
        comp["response"] = "B" if comp["response"] == "A" else "A"
        with pytest.raises(ParseError) as caught:
            report_from_json_dict(doc)
        assert str(caught.value) == f"malformed report: {section} disagrees with the report's own inputs"

    @pytest.mark.parametrize(
        "level, message",
        [
            ("c", "KeyError('a')"),
            ("A", "KeyError('a')"),
            (None, "KeyError('a')"),
            (["a"], "TypeError(\"unhashable type: 'list'\")"),
            ("b" * 10**5, "KeyError('a')"),
        ],
        ids=["c", "A", "None", "list", "long"],
    )
    def test_an_unknown_level_is_a_one_line_parse_error(self, table3, level, message):
        # the marginals are looked up by level, so the comparison at a is missing
        doc = self.sampled_doc(table3)
        doc["marginal_selectivity"]["comparisons"][0]["fixed_level"] = level
        with pytest.raises(ParseError) as caught:
            report_from_json_dict(doc)
        assert str(caught.value) == f"malformed report: {message}"

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda ms, tests: ms.pop(), ParseError, """malformed report: KeyError("b'")"""),
            (lambda ms, tests: ms.__setitem__(slice(None), [ms[0]] * 4), ParseError, "malformed report: KeyError('b')"),
            (lambda ms, tests: ms.reverse(), ParseError, "malformed report: marginal_selectivity disagrees with the report's own inputs"),
            (lambda ms, tests: ms.append(ms[0]), ParseError, "malformed report: marginal_selectivity disagrees with the report's own inputs"),
            (lambda ms, tests: ms.clear(), ParseError, "malformed report: KeyError('a')"),
            (lambda ms, tests: tests.__delitem__(slice(1, None)), ParseError, "malformed report: IndexError('list index out of range')"),
            (lambda ms, tests: tests.clear(), ParseError, "malformed report: IndexError('list index out of range')"),
            (lambda ms, tests: tests.append(tests[0]), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            (lambda ms, tests: tests.reverse(), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            (lambda ms, tests: tests[0].__setitem__("comparison", tests[1]["comparison"]), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            (lambda ms, tests: tests[2]["comparison"].__setitem__("p_under_first", "0"), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            (lambda ms, tests: tests[2].__setitem__("n_first", 88), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
        ],
        ids=[
            "three", "four-copies", "reversed", "five", "none", "one-test", "no-tests", "five-tests", "tests-reversed",
            "test-swapped", "test-changed", "size-differs-at-b",
        ],
    )
    def test_comparison_and_test_lists_the_program_never_writes_are_rejected(self, table3, edit, error, message):
        doc = self.sampled_doc(table3)
        assert report_from_json_dict(doc) == analyze(table3)
        edit(doc["marginal_selectivity"]["comparisons"], doc["statistical_tests"])
        with pytest.raises(error) as caught:
            report_from_json_dict(doc)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "name, edit, error, message",
        [
            ("table1", expectation_five, InvalidValue, "treatment a,b: the expectation and marginals give cell p_pp = 3/2 outside [0, 1]"),
            ("table1", lambda doc: doc["marginal_selectivity"].update(tolerance="-1/2"), InvalidValue, "tolerance must be nonnegative, got -1/2"),
            ("table1", lambda doc: doc["marginal_selectivity"].update(tolerance=f"1/{10**2001}"), InvalidValue, "tolerance: numerator or denominator exceeds 10**2000"),
            ("table3", lambda doc: doc["statistical_tests"][0].update(n_first=88), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            ("table3", lambda doc: doc["statistical_tests"][0].update(alpha_sig=0.2), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            ("uniform", uniform_witness, ParseError, "malformed report: feasibility disagrees with the report's own inputs"),
        ],
        ids=["expectation-five", "tolerance-negative", "tolerance-beyond-cap", "n-88-at-a-and-81-at-b", "alpha-0.2-and-0.05", "uniform-witness"],
    )
    def test_schema_valid_documents_the_program_never_writes_are_rejected(self, schema, request, name, edit, error, message):
        import jsonschema

        data = predicted_tables(uniform_distribution()) if name == "uniform" else request.getfixturevalue(name)
        doc = json.loads(json.dumps(report_to_json_dict(analyze(data), include_witness=True)))
        assert report_from_json_dict(doc) == analyze(data)
        edit(doc)
        jsonschema.validate(doc, schema)  # so the schema alone cannot reject it
        with pytest.raises(error) as caught:
            report_from_json_dict(doc)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "edit, section", [(certificate_contradicted, "feasibility"), (gamma_zero_and_feasible, "chsh")],
        ids=["certificate-contradicted", "gamma-zero-and-feasible"],
    )
    def test_parts_that_contradict_the_inputs_are_rejected(self, table3, edit, section):
        doc = self.sampled_doc(table3)
        edit(doc)
        with pytest.raises(ParseError) as caught:
            report_from_json_dict(doc)
        assert str(caught.value) == f"malformed report: {section} disagrees with the report's own inputs"

    def test_every_derived_leaf_is_checked(self, schema, table1, table2, table3):
        import jsonschema

        validator = jsonschema.Draft7Validator(schema)
        feasible, _ = self.feasible_report()
        docs = [report_to_json_dict(analyze(data)) for data in (table1, table2, table3)]
        docs.append(report_to_json_dict(feasible, include_witness=True))
        edits = 0
        for doc in (json.loads(json.dumps(doc)) for doc in docs):
            for path, value in derived_leaf_edits(doc):
                edited = copy.deepcopy(doc)
                *parents, leaf = path
                target = functools.reduce(operator.getitem, parents, edited)
                assert target[leaf] != value, path
                target[leaf] = value
                validator.validate(edited)
                with pytest.raises(SelinfError):
                    report_from_json_dict(edited)
                edits += 1
        assert edits == 195

    def test_every_corpus_report_round_trips_with_and_without_its_witness(self):
        # at the defaults, with Bonferroni's alpha 0.0125, and at a nonzero tolerance and another alpha
        options = [{}, {"bonferroni": True}, {"tolerance": Fraction(1, 20), "alpha_sig": 0.01}]
        runs = [(data, {}) for data in selective_batch_cases()] + [(data, kw) for data in corpus() for kw in options]
        for data, kwargs in runs:
            report = analyze(data, **kwargs)
            for include_witness in (True, False):  # the reader returns the witness either way
                doc = json.loads(json.dumps(report_to_json_dict(report, include_witness=include_witness)))
                rebuilt = report_from_json_dict(doc)
                assert rebuilt == report and report_to_json_dict(rebuilt, include_witness=include_witness) == doc
        assert len(runs) == 400 + 3 * 136

    def test_a_witness_must_be_the_one_the_program_writes(self, table3):
        report, _ = self.feasible_report()
        doc = json.loads(json.dumps(report_to_json_dict(report, include_witness=True)))
        doc["feasibility"]["witness"] = {"++++": "1"}  # a distribution, of other tables
        with pytest.raises(ParseError, match="^malformed report: feasibility disagrees with the report's own inputs$"):
            report_from_json_dict(doc)
        doc = self.sampled_doc(table3)  # infeasible, so no witness is written
        doc["feasibility"]["witness"] = {"++++": "1"}
        with pytest.raises(ParseError, match="^malformed report: feasibility disagrees with the report's own inputs$"):
            report_from_json_dict(doc)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda doc: doc["statistical_tests"][0].update(reject=0), ParseError, "malformed report: statistical_tests disagrees with the report's own inputs"),
            (lambda doc: doc["marginal_selectivity"].update(satisfied=0), ParseError, "malformed report: marginal_selectivity disagrees with the report's own inputs"),
            (lambda doc: doc["statistical_tests"][0].update(n_first=81.0), InvalidValue, "sample sizes must be positive integers, got 81.0 and 81"),
            (lambda doc: doc["statistical_tests"][0].update(n_first=0), InvalidValue, "sample sizes must be positive integers, got 0 and 81"),
            (lambda doc: doc["statistical_tests"][0].update(alpha_sig=True), InvalidValue, "alpha_sig must be in (0, 1), got True"),
            (lambda doc: doc["marginal_selectivity"].update(tolerance="1e5000"), InvalidValue, "decimal exponent beyond +-1000"),
            (lambda doc: doc.update(note="x"), ParseError, "malformed report: unknown keys ['note']"),
            (lambda doc: doc.pop("statistical_tests"), ParseError, "malformed report: KeyError('statistical_tests')"),
        ],
        ids=["reject-as-0", "satisfied-as-0", "float-size", "zero-size", "alpha-true", "exponent", "extra-key", "no-tests-key"],
    )
    def test_values_are_read_and_compared_as_json(self, table3, edit, error, message):
        doc = self.sampled_doc(table3)
        edit(doc)
        with pytest.raises(error) as caught:
            report_from_json_dict(doc)
        assert type(caught.value) is error and str(caught.value) == message


@functools.cache
def report_documents():
    """The JSON reports of the goldens and of seeded push-forward, selective and unconstrained data, with and without the witness."""
    rng = random.Random(29)
    datas = [parse_experiment(load_fixture_text(name)) for name in ("table1", "table2", "table3")]
    datas += [predicted_tables(random_hidden_distribution(rng)), random_ms_data(rng), random_any_data(rng)]
    reports = [analyze(data) for data in datas]
    return [json.loads(json.dumps(report_to_json_dict(r, include_witness=w))) for r in reports for w in (False, True)]


def json_parts(doc, path=()):
    """The path of each part of a JSON document below its root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_parts(value, path + (key,))


@st.composite
def edited_reports(draw):
    """A report of ``report_documents``, then one or two of its parts removed or set to any JSON value."""
    docs = report_documents()
    doc = copy.deepcopy(docs[draw(st.integers(0, len(docs) - 1))])
    for _ in range(draw(st.integers(1, 2))):
        *parents, leaf = draw(st.sampled_from(list(json_parts(doc))))
        parent = functools.reduce(operator.getitem, parents, doc)
        value = draw(JSON_VALUES | st.just(DELETED))
        if value is DELETED:
            del parent[leaf]
        else:
            parent[leaf] = value
    return doc


class TestReportReaderRaisesOnlySelinfError:
    """A report document the reader rejects is a ``ParseError`` or an ``InvalidValue``, never another exception."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(edited_reports())
    def test_edited_reports(self, doc):
        try:
            report_from_json_dict(doc)
        except (ParseError, InvalidValue):
            pass


PATTERN_KEYS = list(SIGN_PATTERNS)
CLASSIFICATIONS = ("classical-bound-satisfied", "quantum-region", "supra-quantum")
FACET = {"kind": "chsh_facet", "pattern": "+++-", "value": "3"}


def other_fraction(text):
    return str(Fraction(text) + 1)


def comparison_edits(path, comp):
    yield (*path, "response"), "B" if comp["response"] == "A" else "A"
    yield (*path, "delta"), other_fraction(comp["delta"])
    yield (*path, "fixed_level"), next(level for level in LEVELS if level != comp["fixed_level"])


def certificate_edits(path, cert):
    if cert["kind"] == "marginal":
        yield from comparison_edits(path, cert)
        yield (*path, "p_under_first"), other_fraction(cert["p_under_first"])
    else:
        yield (*path, "pattern"), next(p for p in PATTERN_KEYS if p != cert["pattern"])
        yield (*path, "value"), other_fraction(cert["value"])


def derived_leaf_edits(doc):
    """(path, value): each part of a rendered report that its inputs fix, given another schema-valid value."""
    chsh, ms, tests, feas = doc["chsh"], doc["marginal_selectivity"], doc["statistical_tests"] or [], doc["feasibility"]
    for key, value in chsh["sums"].items():
        yield ("chsh", "sums", key), other_fraction(value)
    yield ("chsh", "gamma"), other_fraction(chsh["gamma"])
    yield ("chsh", "gamma_decimal"), "9.999"
    yield ("chsh", "argmax_patterns"), [p for p in PATTERN_KEYS if p not in chsh["argmax_patterns"]][:1] or PATTERN_KEYS[:1]
    if len(chsh["argmax_patterns"]) > 1:
        yield ("chsh", "argmax_patterns"), chsh["argmax_patterns"][::-1]
    yield ("chsh", "classification"), next(c for c in CLASSIFICATIONS if c != chsh["classification"])
    yield ("marginal_selectivity", "satisfied"), not ms["satisfied"]
    yield ("marginal_selectivity", "max_delta"), other_fraction(ms["max_delta"])
    for i, comp in enumerate(ms["comparisons"]):
        yield from comparison_edits(("marginal_selectivity", "comparisons", i), comp)
    for i, test in enumerate(tests):
        path = ("statistical_tests", i)
        yield (*path, "z"), test["z"] + 1
        yield (*path, "p_value"), 0.25 if test["p_value"] == 0.5 else 0.5
        yield (*path, "reject"), not test["reject"]
        yield (*path, "degenerate"), not test["degenerate"]
        yield (*path, "comparison"), tests[(i + 1) % len(tests)]["comparison"]
        yield from comparison_edits((*path, "comparison"), test["comparison"])
    yield ("feasibility", "verdict"), "infeasible" if feas["verdict"] == "feasible" else "feasible"
    yield ("feasibility", "certificate"), None if feas["certificate"] else FACET
    if feas["certificate"]:
        yield from certificate_edits(("feasibility", "certificate"), feas["certificate"])
    for i, cert in enumerate(feas["all_violations"]):
        yield from certificate_edits(("feasibility", "all_violations", i), cert)
    yield ("feasibility", "all_violations"), feas["all_violations"][1:] if feas["all_violations"] else [FACET]


@pytest.fixture(scope="module")
def schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    text = (resources.files("selinf") / "schema" / "analysis_report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft7Validator.check_schema(schema)
    return schema


class TestReportSchema:
    def validate(self, doc, schema):
        import jsonschema

        jsonschema.validate(doc, schema)

    def test_golden_reports_validate(self, schema, table1, table2, table3):
        for data in (table1, table2, table3):
            self.validate(report_to_json_dict(analyze(data)), schema)

    def test_feasible_report_with_witness_validates(self, schema):
        rng = random.Random(83)
        data = predicted_tables(random_hidden_distribution(rng))
        doc = report_to_json_dict(analyze(data), include_witness=True)
        self.validate(doc, schema)

    def test_random_reports_validate(self, schema):
        rng = random.Random(84)
        for _ in range(10):
            doc = report_to_json_dict(analyze(random_any_data(rng)))
            self.validate(doc, schema)


class TestTextRendering:
    def test_sections_present(self, table3):
        report = analyze(table3)
        text = render_report_text(report, labels=table3.labels)
        assert "CHSH" in text
        assert "Gamma" in text
        assert "Marginal selectivity" in text
        assert "VIOLATED" in text
        assert "Significance" in text
        assert "INFEASIBLE" in text
        # response alternatives from the labels appear
        assert "Tiger" in text and "Cat" in text

    def test_witness_rendered_when_asked(self):
        data = predicted_tables(uniform_distribution())
        report = analyze(data)
        text = render_report_text(report, include_witness=True)
        assert "FEASIBLE" in text
        assert "witness" in text

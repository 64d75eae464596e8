"""``ExperimentData.scaled_cells``: the 16 cells over their common denominator, built once.

Every construction route must store the vector ``over_common_denominator``
gives for the 16 cells, and the CHSH sums, the marginals and the solver must
read it rather than put the cells over a common denominator again. The data
hold no other copy of the cells: each table is built when read. A joint
table holds only its own four scaled cells, so parsing builds no
``Fraction``: a cell is one, built when read.
"""

import copy
import gc
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import selinf
import selinf.model
from selinf.chsh import ChshReport, compute_gamma
from selinf.cli import FIXTURE_NAMES, load_fixture_text
from selinf.errors import ParseError
from selinf.feasibility import FacetViolation, HiddenStateDistribution, predicted_tables, solve_feasibility
from selinf.io import AnalysisReport, parse_experiment, report_to_json_dict, serialize_experiment
from selinf.model import (
    CELLS,
    MAX_COMMON_DENOMINATOR,
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
    LabelSet,
    _Record,
    over_common_denominator,
)
from selinf.selectivity import check_marginal_selectivity
from selinf.simulate import Model, SampleSpec, sample_counts

from conftest import (
    cap_denominator_push_forward,
    pr_box,
    random_any_data,
    random_hidden_distribution,
    random_ms_data,
    selective_batch_cases,
)
from relabel import (
    flip_a_coding,
    flip_b_coding,
    mix_experiments,
    mix_tables,
    point_mass_table,
    push_forward,
    swap_alpha_levels,
    swap_beta_levels,
    uniform_distribution,
)


def table_cells(data):
    return [c for t in TREATMENTS for c in data.table(t).cells()]


def every_route():
    """Data built by each construction route: parse, sampling, push-forward, contamination, relabeling."""
    rng = random.Random(12)
    for name in FIXTURE_NAMES:
        yield parse_experiment(load_fixture_text(name))
    # blocks whose integers share a factor with their denominator: even counts, and the cells .3, .3, .3 and .09,
    # renormalized to 30, 30, 30 and 9 over their sum 99
    for block in ({"pp": 2, "pm": 2, "mp": 0, "mm": 4}, {"pp": ".3", "pm": ".3", "mp": ".3", "mm": ".09"}):
        yield parse_experiment(json.dumps({"treatments": {t.key: block for t in TREATMENTS}, "renormalize": True}))
    hidden = random_hidden_distribution(rng)
    contaminated = Model(hidden, Fraction(1, 7), dict(zip(TREATMENTS, CELLS)))
    yield predicted_tables(hidden)
    yield contaminated.tables
    for model in (Model(hidden), contaminated):
        sampled = sample_counts(model, SampleSpec(n_per_treatment=97, seed=5))
        yield sampled
        yield parse_experiment(serialize_experiment(sampled))
    base = random_any_data(rng)
    yield base
    yield random_ms_data(rng)
    yield pr_box()
    yield cap_denominator_push_forward()
    yield flip_a_coding(base, "a")
    yield flip_b_coding(base)
    yield swap_alpha_levels(base)
    yield swap_beta_levels(base)
    yield mix_experiments(base, pr_box(), Fraction(2, 5))


def test_every_route_stores_the_cells_over_their_common_denominator():
    for data in every_route():
        numerators, lcd = over_common_denominator(table_cells(data))
        assert data.scaled_cells == (*numerators, lcd)
        assert type(data.scaled_cells) is tuple


def test_every_route_stores_each_table_over_its_own_common_denominator():
    for data in every_route():
        for t in TREATMENTS:
            numerators, lcd = over_common_denominator(data.table(t).cells())
            assert data.table(t).scaled_cells == (*numerators, lcd)


def reached(root):
    """Every container and record ``gc.get_referents`` finds from ``root``, ``root`` too."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in found:
            found[id(obj)] = obj
            stack += [r for r in gc.get_referents(obj) if isinstance(r, (tuple, list, dict, _Record))]
    return list(found.values())


def test_the_cells_are_held_once_and_each_table_is_built_when_read():
    # each table read must be the one JointTable(...) builds from its cells as Fractions, as the data once stored it
    hidden = random_hidden_distribution(random.Random(36))
    cross = dict(zip(TREATMENTS, CELLS))
    contaminated = Model(hidden, Fraction(1, 7), cross)
    sampled = sample_counts(contaminated, SampleSpec(n_per_treatment=97, seed=5))
    pushed = push_forward(hidden)
    routes = []
    for name in FIXTURE_NAMES:  # table3 sets "renormalize": its blocks are read over their sums
        blocks = json.loads(load_fixture_text(name))["treatments"]
        cells = [[Fraction(blocks[t.key][k]) for k in ("pp", "pm", "mp", "mm")] for t in TREATMENTS]
        routes.append((parse_experiment(load_fixture_text(name)), [[c / sum(four) for c in four] for four in cells]))
    routes += [
        (sampled, [[Fraction(c, sampled.count(t).n) for c in sampled.count(t).cells()] for t in TREATMENTS]),
        (predicted_tables(hidden), [pushed.table(t).cells() for t in TREATMENTS]),
        (
            contaminated.tables,
            [mix_tables(point_mass_table(*cross[t]), pushed.table(t), Fraction(1, 7)).cells() for t in TREATMENTS],
        ),
    ]
    for data, cells in routes:
        slots = [name for cls in type(data).__mro__ for name in vars(cls).get("__slots__", ())]
        assert slots == ["scaled_cells", "counts", "labels", "independent_counts"]
        assert not any(isinstance(obj, JointTable) for obj in reached(data))
        for t, table_cells in zip(TREATMENTS, cells):
            stored = JointTable(*table_cells)
            assert data.table(t) == stored and hash(data.table(t)) == hash(stored)
            assert data.table(t).scaled_cells == stored.scaled_cells
        assert data.tables == data.tables and data.tables is not data.tables


def test_no_route_builds_a_table_until_one_is_read(tables_built):
    # each route hands its integers to ExperimentData._hold; reading table(t) then builds that one table
    hidden = random_hidden_distribution(random.Random(37))
    cross = dict(zip(TREATMENTS, CELLS))
    model = Model(hidden, Fraction(1, 7), cross)
    counts = {"pp": 3, "pm": 1, "mp": 0, "mm": 4}
    blocks = [
        {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"},
        counts,
        {"pp": "3/8", "pm": "1/8", "mp": "0", "mm": "1/2", "counts": counts},
        {"pp": ".5", "pm": ".5", "mp": ".01", "mm": "0"},  # renormalized
    ]
    texts = [json.dumps({"treatments": dict.fromkeys([t.key for t in TREATMENTS], b), "renormalize": True}) for b in blocks]
    builds = [lambda text=text: parse_experiment(text) for text in texts] + [
        lambda: sample_counts(model, SampleSpec(n_per_treatment=97, seed=5)),
        lambda: predicted_tables(hidden),
        lambda: Model(hidden).tables,
        lambda: Model(hidden, Fraction(1, 7), cross).tables,
    ]
    for build in builds:
        tables_built.clear()
        data = build()
        assert tables_built == ["ExperimentData._hold"]
        tables_built.clear()
        table = data.table(TREATMENTS[2])
        assert tables_built == ["JointTable._hold"]
        assert table == JointTable(*[Fraction(c, data.scaled_cells[16]) for c in data.scaled_cells[8:12]])


def test_data_equality_reads_the_four_slots_and_builds_no_table(tables_built, fractions_built):
    others = {
        "scaled_cells": (1,) * 16 + (4,),
        "counts": {TREATMENTS[0]: CountTable(1, 1, 1, 1)},
        "labels": LabelSet(factors={"alpha": "x"}),
    }
    for name in FIXTURE_NAMES:
        first, second = parse_experiment(load_fixture_text(name)), parse_experiment(load_fixture_text(name))
        tables_built.clear()
        fractions_built.clear()
        assert first == second and first is not second
        assert tables_built == fractions_built == []
        for slot, other in {**others, "independent_counts": not first.independent_counts}.items():
            changed = copy.copy(first)
            object.__setattr__(changed, slot, other)
            assert changed != second and second != changed


@pytest.mark.parametrize(
    "cells",
    [
        ("2/4", "1/4", "1/8", "1/8"),
        ("2/4", "2/4", "0/3", "0/3"),
        (0.25, "0.25", Fraction(1, 4), ".25"),
        (1, 0, 0.0, "0/7"),
        (Fraction(1, 3), "1/6", 0.5, 0),
        (Fraction(1, 10**1500 + 1), 0, 0, Fraction(10**1500, 10**1500 + 1)),
    ],
)
def test_library_tables_and_data_store_the_least_common_denominator(cells):
    table = JointTable(*cells)
    numerators, lcd = over_common_denominator(table.cells())
    assert table.scaled_cells == (*numerators, lcd)
    data = ExperimentData(dict.fromkeys(TREATMENTS[:3], JointTable("1/6", "1/3", "1/4", "1/4")) | {TREATMENTS[3]: table})
    numerators, lcd = over_common_denominator(table_cells(data))
    assert data.scaled_cells == (*numerators, lcd)


def test_model_tables_past_the_cap_still_sample():
    # L of the contaminated tables has about 4,000 digits; the cap is checked
    # where reports are made, not in ExperimentData, so sampling still works
    w = Fraction(1, 10**1999 + 1)
    model = Model(HiddenStateDistribution.from_mapping({"++++": w, "----": 1 - w}), Fraction(1, 10**1999 + 7), dict(zip(TREATMENTS, CELLS)))
    assert model.tables.scaled_cells[16] > MAX_COMMON_DENOMINATOR
    sampled = sample_counts(model, SampleSpec(n_per_treatment=64, seed=9))
    assert [sampled.count(t).n for t in TREATMENTS] == [64] * 4


def test_the_vector_is_not_part_of_equality_or_repr():
    data = predicted_tables(uniform_distribution())
    assert "scaled_cells" not in repr(data) and "scaled_cells" not in repr(data.table(TREATMENTS[0]))
    assert data == predicted_tables(uniform_distribution())


@pytest.fixture
def lcd_calls(monkeypatch):
    """The values of each call to ``over_common_denominator`` from any selinf module."""
    calls = []
    original = over_common_denominator

    def counted(values):
        values = list(values)
        calls.append(values)
        return original(values)

    for module in vars(selinf).values():
        if hasattr(module, "over_common_denominator"):
            monkeypatch.setattr(module, "over_common_denominator", counted)
    return calls


def test_parsing_reuses_each_block_denominator_for_the_16_cells(lcd_calls):
    # the parser puts each block's four cells over their L while it checks
    # their sum, and ExperimentData._hold takes the lcm of those four, so
    # parsing never puts values over a common denominator again
    for name in FIXTURE_NAMES:
        lcd_calls.clear()
        data = parse_experiment(load_fixture_text(name))
        assert lcd_calls == []
        assert data.scaled_cells == (*over_common_denominator(table_cells(data))[0], data.scaled_cells[16])
        for t in TREATMENTS:
            numerators, lcd = over_common_denominator(data.table(t).cells())
            assert data.table(t).scaled_cells == (*numerators, lcd)


def stored_vector_corpus():
    """Push-forwards, marginally selective and arbitrary tables, and table 2 (phase 1, infeasible)."""
    rng = random.Random(13)
    corpus = [predicted_tables(random_hidden_distribution(rng)) for _ in range(5)]
    corpus += [random_ms_data(rng) for _ in range(5)] + [random_any_data(rng) for _ in range(5)]
    corpus.append(parse_experiment(load_fixture_text("table2")))
    return corpus


def test_gamma_marginals_and_solver_read_the_stored_vector(lcd_calls):
    verdicts = set()
    for data in stored_vector_corpus():
        lcd_calls.clear()
        chsh, marginals = compute_gamma(data), check_marginal_selectivity(data)
        result = solve_feasibility(data, chsh, marginals)
        verdicts.add(result.feasible)
        # the CHSH report and the witness keep the integers they are computed from, and hold what the
        # sums over their Fractions would give
        assert lcd_calls == []
        numerators, lcd = over_common_denominator(chsh.expectations[t] for t in TREATMENTS)
        assert chsh.scaled_expectations == (*numerators, lcd)
        if result.feasible:
            numerators, lcd = over_common_denominator(result.witness.weights)
            assert result.witness.scaled_weights == (*numerators, lcd)
    assert verdicts == {True, False}


class TestTwoRulesBroken:
    """The 16-cell cap is checked on the built data, so the labels and the
    count-versus-table check now come first when a document also breaks them."""

    def combined(self):
        """Two exact blocks with pp = 1/(10**1500 + 1) and 1/(10**1500 + 3): each within the cap, not both."""

        def exact(denominator):
            pp = Fraction(1, denominator)
            return {"pp": str(pp), "pm": "0", "mp": "0", "mm": str(1 - pp)}

        uniform = {"pp": "1/4", "pm": "1/4", "mp": "1/4", "mm": "1/4"}
        blocks = (exact(10**1500 + 1), exact(10**1500 + 3), uniform, dict(uniform))
        return {"treatments": {t.key: block for t, block in zip(TREATMENTS, blocks)}}

    def test_the_cap_alone_is_a_bad_cell(self):
        with pytest.raises(ParseError, match="^treatments: the cells' least common denominator exceeds"):
            parse_experiment(json.dumps(self.combined()))

    def test_bad_labels_are_reported_before_the_cap(self):
        doc = self.combined()
        doc["labels"] = {"factors": {"gamma": "x"}}
        with pytest.raises(ParseError, match="^bad labels: unknown keys"):
            parse_experiment(json.dumps(doc))

    def test_conflicting_counts_are_reported_before_the_cap(self):
        doc = self.combined()
        doc["treatments"]["a',b"]["counts"] = {"pp": 1, "pm": 1, "mp": 1, "mm": 2}
        with pytest.raises(ParseError, match="^treatment a',b: counts normalize to"):
            parse_experiment(json.dumps(doc))


class TestTablesHoldIntegers:
    def documents(self):
        """Seeded conftest corpora as documents: cells as "p/q" strings, some with counts, some counts alone."""
        rng = random.Random(31)
        datas = [random_ms_data(rng) for _ in range(10)] + [random_any_data(rng) for _ in range(10)]
        datas += [predicted_tables(random_hidden_distribution(rng)) for _ in range(10)]
        sampled = [sample_counts(Model(random_hidden_distribution(rng)), SampleSpec(50, seed)) for seed in range(5)]
        texts = [serialize_experiment(data) for data in datas + sampled]
        counts_alone = {
            "treatments": {t.key: dict(zip(("pp", "pm", "mp", "mm"), data.count(t).cells())) for t in TREATMENTS}
            for data in sampled
        }
        return texts + [json.dumps(counts_alone)]

    def test_parsing_a_corpus_builds_no_fraction(self, fractions_built):
        texts = self.documents()
        fractions_built.clear()
        parsed = [parse_experiment(text) for text in texts]
        assert fractions_built == []
        assert parsed[0].table(TREATMENTS[0]).cells()  # the counter sees Fractions built on read
        assert len(fractions_built) == 4

    def test_reading_a_cell_builds_one_fraction(self, fractions_built):
        table = JointTable("1/2", 0, ".25", "1/4")
        normalized = CountTable(1, 0, 2, 1).normalized()
        assert fractions_built == []
        value = table.p_pp
        assert fractions_built == [(2, 4)]  # the cell over the table's L
        assert value == Fraction(1, 2) and normalized.scaled_cells == (1, 0, 2, 1, 4)

    def test_a_table_of_mixed_cells_is_the_table_of_their_fractions(self):
        mixed = JointTable("1/2", 0, ".25", Fraction(1, 4))
        fractions = JointTable(Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 4))
        assert mixed == fractions and hash(mixed) == hash(fractions)
        assert hash(mixed) == hash((Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 4)))
        assert repr(mixed) == (
            "JointTable(p_pp=Fraction(1, 2), p_pm=Fraction(0, 1), p_mp=Fraction(1, 4), p_mm=Fraction(1, 4))"
        )
        assert mixed.scaled_cells == (2, 0, 1, 1, 4)
        for clone in (pickle.loads(pickle.dumps(mixed)), copy.copy(mixed), copy.deepcopy(mixed)):
            assert clone == mixed and hash(clone) == hash(mixed) and clone.scaled_cells == mixed.scaled_cells

    def test_equality_reads_the_integers_and_agrees_with_the_cells(self, fractions_built):
        # every table of cells over d = 1, 2 or 3, so a table over 1 recurs over 2 and 3, and some tables share three
        # numerators over different L, such as (1, 1, 0, 0) over 2 and (1, 1, 0, 1) over 3
        tables = [
            JointTable(*(f"{c}/{d}" for c in cells))
            for d in (1, 2, 3) for cells in itertools.product(range(d + 1), repeat=4) if sum(cells) == d
        ]
        fractions_built.clear()
        equal = [[a == b for b in tables] for a in tables]
        assert fractions_built == []
        assert equal == [[a.cells() == b.cells() for b in tables] for a in tables]
        assert sum(map(sum, equal)) == len(tables) + 4 * 6  # each table over 1 is 3 tables: 9 equal pairs, not 3


class TestReportsHoldIntegers:
    """A CHSH report and a witness keep the integers they are computed from: the Fractions are built when read."""

    @pytest.fixture(scope="class")
    def items(self):
        """The benchmark's selective-batch pool at seed 301, through the experiment document."""
        return [parse_experiment(serialize_experiment(data)) for data in selective_batch_cases()]

    def test_gamma_the_solver_and_the_json_render_build_no_fraction(self, items, fractions_built):
        infeasible = 0
        for data in items:
            fractions_built.clear()
            chsh = compute_gamma(data)
            assert fractions_built == []
            marginals = check_marginal_selectivity(data)
            fractions_built.clear()
            result = solve_feasibility(data, chsh, marginals)
            # only a violated facet's value is built, for its FacetViolation
            assert len(fractions_built) == sum(isinstance(c, FacetViolation) for c in result.all_violations)
            infeasible += not result.feasible
            fractions_built.clear()
            report_to_json_dict(AnalysisReport(chsh, marginals, None, result), include_witness=True)
            assert fractions_built == []
        assert 0 < infeasible < len(items) / 10

    def test_reading_builds_the_fractions(self, items, fractions_built):
        chsh = compute_gamma(items[0])
        witness = solve_feasibility(items[0], chsh, check_marginal_selectivity(items[0])).witness
        *expectations, lcd = chsh.scaled_expectations
        *weights, total = witness.scaled_weights
        for read, built in (
            (lambda: chsh.expectations, [(e, lcd) for e in expectations]),
            (lambda: chsh.sums, [(v, lcd) for v in chsh.scaled_sums]),
            (lambda: chsh.gamma, [(max(chsh.scaled_sums), lcd)]),
            (lambda: witness.weights, [(w, total) for w in weights]),
        ):
            fractions_built.clear()
            read()
            assert fractions_built == built

    def test_records_are_the_records_their_fractions_build(self, items):
        for data in items + [parse_experiment(load_fixture_text(name)) for name in FIXTURE_NAMES]:
            chsh = compute_gamma(data)
            public = ChshReport(chsh.expectations)
            assert chsh == public and repr(chsh) == repr(public) and pickle.dumps(chsh) == pickle.dumps(public)
            assert chsh.scaled_expectations == public.scaled_expectations and chsh.scaled_sums == public.scaled_sums
            assert chsh.sums == public.sums and chsh.gamma == public.gamma
            assert (chsh.argmax_patterns, chsh.classification) == (public.argmax_patterns, public.classification)
            with pytest.raises(TypeError):
                hash(chsh)
            witness = solve_feasibility(data, chsh, check_marginal_selectivity(data)).witness
            if witness is None:
                continue
            public = HiddenStateDistribution(witness.weights)
            assert witness == public and hash(witness) == hash(public) == hash((public.weights,))
            assert repr(witness) == repr(public) and pickle.dumps(witness) == pickle.dumps(public)
            assert witness.scaled_weights == public.scaled_weights
            for clone in (pickle.loads(pickle.dumps(witness)), copy.copy(witness), copy.deepcopy(witness)):
                assert clone == witness and clone.scaled_weights == witness.scaled_weights


class TestCountTablesNormalize:
    """``CountTable.normalized()`` puts the counts and n over their one gcd: the table of the cells count/n."""

    @staticmethod
    def assert_is_the_fraction_table(cells):
        table = CountTable(*cells).normalized()
        expected = JointTable(*(Fraction(c, sum(cells)) for c in cells))
        assert table.scaled_cells == expected.scaled_cells and table == expected and hash(table) == hash(expected)
        assert repr(table) == repr(expected) and pickle.dumps(table) == pickle.dumps(expected)
        assert pickle.loads(pickle.dumps(table)).scaled_cells == expected.scaled_cells

    def test_every_count_table_of_at_most_ten_observations(self):
        # zeros, point masses and every common factor of the counts and n up to 10
        tables = [cells for cells in itertools.product(range(11), repeat=4) if 0 < sum(cells) <= 10]
        for cells in tables:
            self.assert_is_the_fraction_table(cells)
        assert len(tables) == 1000

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.integers(0, 2**51)] * 4)
        | st.tuples(st.tuples(*[st.integers(0, 2**11)] * 4), st.integers(1, 2**40)).map(
            lambda pair: tuple(c * pair[1] for c in pair[0])  # counts with a large common factor
        )
    )
    def test_counts_up_to_2_to_the_53(self, cells):
        assume(any(cells))
        self.assert_is_the_fraction_table(cells)

    def test_builds_no_cell_string_and_no_fraction(self, fractions_built, monkeypatch):
        read = []
        original = selinf.model.integer_ratio
        monkeypatch.setattr(selinf.model, "integer_ratio", lambda value: read.append(value) or original(value))
        model = Model(uniform_distribution())
        read.clear()
        fractions_built.clear()
        tables = [CountTable(*cells).normalized() for cells in ((1, 0, 2, 1), (0, 0, 0, 7), (6, 4, 2, 0))]
        sample_counts(model, SampleSpec(100, 5))
        assert read == [] and fractions_built == []
        assert [t.scaled_cells for t in tables] == [(1, 0, 2, 1, 4), (0, 0, 0, 1, 1), (3, 2, 1, 0, 6)]

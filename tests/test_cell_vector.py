"""``ExperimentData.scaled_cells``: the 16 cells over their common denominator, built once.

Every construction route must store the vector ``over_common_denominator``
gives for the 16 cells, and the CHSH sums, the marginals and the solver must
read it rather than put the cells over a common denominator again. A joint
table holds only its own four scaled cells, so parsing builds no
``Fraction``: a cell is one, built when read.
"""

import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

import selinf
from selinf.chsh import compute_gamma
from selinf.cli import FIXTURE_NAMES, load_fixture_text
from selinf.errors import ParseError
from selinf.feasibility import HiddenStateDistribution, predicted_tables, solve_feasibility
from selinf.io import parse_experiment, serialize_experiment
from selinf.model import (
    CELLS,
    MAX_COMMON_DENOMINATOR,
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
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
)
from relabel import (
    flip_a_coding,
    flip_b_coding,
    mix_experiments,
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
    # each JointTable puts its four cells over their L while it checks their
    # sum, and ExperimentData takes the lcm of those four, so parsing never
    # puts values over a common denominator again
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
        # the sums left are the CHSH report's, over its four expectations, and the witness's own check of its 16 weights
        expected = [[chsh.expectations[t] for t in TREATMENTS]] + ([list(result.witness.weights)] if result.feasible else [])
        assert lcd_calls == expected
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


@pytest.fixture
def fractions_built(monkeypatch):
    """A list that grows by the arguments of each ``Fraction`` constructed, by any module."""
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


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

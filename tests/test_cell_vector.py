"""``ExperimentData.scaled_cells``: the 16 cells over their common denominator, built once.

Every construction route must store the vector ``over_common_denominator``
gives for the 16 cells, and the CHSH sums, the marginals and the solver must
read it rather than put the cells over a common denominator again.
"""

import json
import random
from fractions import Fraction

import pytest

import selinf
from selinf.chsh import compute_gamma
from selinf.cli import FIXTURE_NAMES, load_fixture_text
from selinf.errors import BadCell, ConflictingData, ParseError
from selinf.feasibility import predicted_tables, solve_feasibility
from selinf.io import parse_experiment, serialize_experiment
from selinf.model import CELLS, TREATMENTS, Level, over_common_denominator
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
    yield flip_a_coding(base, Level.FIRST)
    yield flip_b_coding(base)
    yield swap_alpha_levels(base)
    yield swap_beta_levels(base)
    yield mix_experiments(base, pr_box(), Fraction(2, 5))


def test_every_route_stores_the_cells_over_their_common_denominator():
    for data in every_route():
        numerators, lcd = over_common_denominator(table_cells(data))
        assert data.scaled_cells == (*numerators, lcd)
        assert type(data.scaled_cells) is tuple


def test_the_vector_is_not_part_of_equality_or_repr():
    data = predicted_tables(uniform_distribution())
    assert "scaled_cells" not in repr(data)
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


def test_parsing_puts_the_16_cells_over_one_denominator_once(lcd_calls):
    for name in FIXTURE_NAMES:
        lcd_calls.clear()
        data = parse_experiment(load_fixture_text(name))
        assert [values for values in lcd_calls if len(values) == 16] == [table_cells(data)]


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
        # the only sum left is the witness's own check of its 16 weights
        assert lcd_calls == ([list(result.witness.weights)] if result.feasible else [])
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
        with pytest.raises(BadCell, match="^treatments: the cells' least common denominator exceeds"):
            parse_experiment(json.dumps(self.combined()))

    def test_bad_labels_are_reported_before_the_cap(self):
        doc = self.combined()
        doc["labels"] = {"factors": {"gamma": "x"}}
        with pytest.raises(ParseError, match="^bad labels: unknown keys"):
            parse_experiment(json.dumps(doc))

    def test_conflicting_counts_are_reported_before_the_cap(self):
        doc = self.combined()
        doc["treatments"]["a',b"]["counts"] = {"pp": 1, "pm": 1, "mp": 1, "mm": 2}
        with pytest.raises(ConflictingData, match="^treatment a',b: counts normalize to"):
            parse_experiment(json.dumps(doc))

"""Hidden-state feasibility: push-forward, solver, criterion, representations."""

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

from selinf import simplex
from selinf.chsh import ChshReport, compute_gamma
from selinf.errors import InvalidValue, SelinfError
from selinf.feasibility import (
    HIDDEN_STATES,
    FacetViolation,
    FeasibilityResult,
    HiddenStateDistribution,
    fine_criterion,
    fine_violations,
    predicted_tables,
    solve_feasibility,
    verify_witness,
)
from selinf.io import analyze, report_to_json_dict
from selinf.model import CELLS, MAX_COMMON_DENOMINATOR, TREATMENTS, ExperimentData, JointTable, over_common_denominator
from selinf.report import render_report_text
from selinf.selectivity import MarginalComparison, check_marginal_selectivity
from selinf.simplex import ROWS, TRANSFORM

from conftest import (
    cap_denominator_distribution,
    cap_denominator_push_forward,
    pr_box,
    random_any_data,
    random_hidden_distribution,
    random_ms_data,
    selective_batch_cases,
)
from relabel import (
    STATES,
    chsh_facet_value,
    comparison,
    general_representation,
    mix_distributions,
    mix_experiments,
    negated,
    pattern_signs,
    point_mass_distribution,
    point_mass_table,
    push_forward,
    reconstructed_tables,
    sign_pattern,
    state_response,
    uniform_distribution,
    uniform_table,
    weight,
)

import fraction_simplex
from small_scope import checked_grid, experiment
from test_corpus_digest import corpus
from test_simplex import full_tableau, state_graph


class TestHiddenStates:
    def test_sixteen_distinct_states(self):
        assert len(HIDDEN_STATES) == len(set(HIDDEN_STATES)) == 16
        assert all(type(state) is str for state in HIDDEN_STATES)

    def test_lexicographic_order_with_plus_first(self):
        assert HIDDEN_STATES[0] == "++++"
        assert HIDDEN_STATES[1] == "+++-"
        assert HIDDEN_STATES[2] == "++-+"
        assert HIDDEN_STATES[6] == "+--+"
        assert HIDDEN_STATES[15] == "----"
        assert HIDDEN_STATES == STATES

    def test_index_round_trip(self):
        for i, state in enumerate(HIDDEN_STATES):
            dist = HiddenStateDistribution.from_mapping({state: 1})
            assert dist.weights.index(1) == i
            assert list(dist.nonzero_texts()) == [(state, "1")]

    def test_response_reads_own_factor_only(self):
        data = predicted_tables(point_mass_distribution("+--+"))
        assert data.table(TREATMENTS[0]) == point_mass_table(1, -1)  # (a, b)
        assert data.table(TREATMENTS[1]) == point_mass_table(1, 1)  # (a, b')
        assert data.table(TREATMENTS[2]) == point_mass_table(-1, -1)  # (a', b)
        assert data.table(TREATMENTS[3]) == point_mass_table(-1, 1)  # (a', b')

    @pytest.mark.parametrize("key", ["+++", "+++++", "++0+", "", 5, None])
    def test_bad_keys_name_the_sign_string_form(self, key):
        message = rf"^hidden state string must be 4 of \+/-, got {re.escape(repr(key))}$"
        with pytest.raises(InvalidValue, match=message):
            HiddenStateDistribution.from_mapping({key: 1})


class TestHiddenStateDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(InvalidValue, match=r"^weights sum to 15/16, expected exactly 1$"):
            HiddenStateDistribution((Fraction(1, 16),) * 15 + (Fraction(0),))

    def test_must_be_nonnegative(self):
        ws = [Fraction(1, 8)] * 16
        ws[0], ws[1] = Fraction(-1, 16), Fraction(1, 8) + Fraction(3, 16)
        with pytest.raises(InvalidValue, match=r"^weights must be nonnegative$"):
            HiddenStateDistribution(tuple(ws))

    def test_messages_print_the_reduced_sum(self):
        with pytest.raises(InvalidValue, match=r"^weights sum to 15/16, expected exactly 1$"):
            HiddenStateDistribution((Fraction(1, 16),) * 15 + (Fraction(0),))
        with pytest.raises(InvalidValue, match=r"^need 16 weights, got 15$"):
            HiddenStateDistribution((Fraction(1, 15),) * 15)

    def test_sums_too_long_to_print_are_named_not_printed(self):
        ws = [Fraction(1, 10**1200 + k) for k in (1, 3, 7, 9)] + [Fraction(0)] * 12
        with pytest.raises(InvalidValue, match=r"^weights sum to 40{59}\.\.\. \(8,402 digits\), expected"):
            HiddenStateDistribution(tuple(ws))

    def test_fractions_are_kept_and_other_weights_converted(self):
        ws = (Fraction(1, 2), Fraction(0)) + (Fraction(1, 28),) * 14
        dist = HiddenStateDistribution(ws)
        assert dist.weights == ws and all(type(w) is Fraction for w in dist.weights)  # built from the integers
        converted = HiddenStateDistribution(("1/2", 0, 0.5) + (0,) * 13)
        assert converted.weights[:3] == (Fraction(1, 2), 0, Fraction(1, 2))
        assert all(type(w) is Fraction for w in converted.weights)

    def test_from_mapping_with_state_strings(self):
        dist = HiddenStateDistribution.from_mapping({"++++": "1/2", "----": ".5"})
        assert weight(dist, HIDDEN_STATES[0]) == Fraction(1, 2)
        assert weight(dist, HIDDEN_STATES[15]) == Fraction(1, 2)
        assert sum(dist.weights) == 1 and dict(dist.nonzero_texts()) == {"++++": "1/2", "----": "1/2"}

    def test_mix_stays_a_distribution(self):
        rng = random.Random(51)
        a = random_hidden_distribution(rng)
        b = random_hidden_distribution(rng)
        m = mix_distributions(a, b, Fraction(1, 3))
        assert sum(m.weights) == 1
        assert all(w >= 0 for w in m.weights)


class TestPredictedTables:
    def test_point_mass_gives_deterministic_tables(self):
        data = predicted_tables(point_mass_distribution(HIDDEN_STATES[0]))
        for t in TREATMENTS:
            assert data.table(t) == JointTable(1, 0, 0, 0)

    def test_uniform_gives_independent_fair_coins(self):
        data = predicted_tables(uniform_distribution())
        for t in TREATMENTS:
            assert data.table(t) == uniform_table()

    def test_equal_mix_of_aligned_extremes(self):
        dist = HiddenStateDistribution.from_mapping({"++++": "1/2", "----": "1/2"})
        data = predicted_tables(dist)
        aligned = JointTable(".5", "0", "0", ".5")
        for t in TREATMENTS:
            assert data.table(t) == aligned
        # matches the extremal box on three treatments but not (a', b')
        box = pr_box()
        assert data.table(TREATMENTS[2]) == box.table(TREATMENTS[2])
        assert data.table(TREATMENTS[3]) != box.table(TREATMENTS[3])

    def test_equals_the_fraction_route_push_forward(self):
        # every point mass, seeded distributions and weights over 10**2000 - 1
        rng = random.Random(53)
        dists = [point_mass_distribution(state) for state in STATES]
        dists += [random_hidden_distribution(rng) for _ in range(100)] + [cap_denominator_distribution()]
        for dist in dists:
            assert predicted_tables(dist) == push_forward(dist)

    def test_push_forward_always_selective_and_classical(self):
        rng = random.Random(52)
        for _ in range(200):
            data = predicted_tables(random_hidden_distribution(rng))
            assert check_marginal_selectivity(data, 0).satisfied
            assert compute_gamma(data).gamma <= 2


class TestSolveFeasibility:
    def test_extremal_box_blocked_by_facet(self, table2):
        result = analyze(table2).feasibility
        assert not result.feasible
        assert isinstance(result.certificate, FacetViolation)
        assert result.certificate.pattern == sign_pattern(1, 1, 1, -1)
        assert result.certificate.value == 4

    def test_marginal_violation_blocks_despite_zero_gamma(self, table1):
        result = analyze(table1).feasibility
        assert not result.feasible
        assert isinstance(result.certificate, MarginalComparison)
        # the B-at-b inequality (.5 vs .4) is among the listed violations
        b_at_b = [
            c
            for c in result.all_violations
            if isinstance(c, MarginalComparison)
            and c.fixed_level == "b"
        ]
        assert len(b_at_b) == 1
        assert (b_at_b[0].p_under_first, b_at_b[0].p_under_second) == (
            Fraction(1, 2),
            Fraction(2, 5),
        )

    def test_observed_experiment_infeasible(self, table3):
        result = analyze(table3).feasibility
        assert not result.feasible
        assert result.certificate is not None

    def test_uniform_tables_feasible_with_witness(self):
        data = predicted_tables(uniform_distribution())
        result = analyze(data).feasibility
        assert result.feasible
        assert verify_witness(result.witness, data)

    def test_random_push_forwards_always_feasible(self):
        rng = random.Random(53)
        for _ in range(100):
            data = predicted_tables(random_hidden_distribution(rng))
            result = analyze(data).feasibility
            assert result.feasible
            assert verify_witness(result.witness, data)

    def test_golden_and_uniform_verdicts(self, table1, table2, table3):
        assert analyze(predicted_tables(uniform_distribution())).feasibility.feasible
        assert not any(analyze(t).feasibility.feasible for t in (table1, table2, table3))

    def test_solver_disagreeing_with_fine_is_an_error(self, monkeypatch):
        # the runtime cross-check: no witness, yet no violated condition
        monkeypatch.setattr("selinf.feasibility.feasible_point", lambda rhs: None)
        data = predicted_tables(uniform_distribution())
        with pytest.raises(SelinfError, match="no marginal or facet condition"):
            solve_feasibility(data, compute_gamma(data), check_marginal_selectivity(data))

    def test_a_result_derives_its_verdict_and_certificate(self, table1):
        violations = analyze(table1).feasibility.all_violations
        infeasible = FeasibilityResult(all_violations=violations)
        assert (infeasible.feasible, infeasible.certificate) == (False, violations[0])
        witness = uniform_distribution()
        for feasible in (FeasibilityResult(), FeasibilityResult(witness)):
            assert (feasible.feasible, feasible.certificate) == (True, None)
        with pytest.raises(InvalidValue, match="^a result with violated conditions has no witness$"):
            FeasibilityResult(witness, violations)

    def test_certificate_search_order_marginals_first(self, table1):
        result = analyze(table1).feasibility
        # table 1 violates all four marginal comparisons; fixed order starts at A at a
        first = result.certificate
        assert isinstance(first, MarginalComparison)
        assert (first.response, first.fixed_level) == ("A", "a")
        assert (first.p_under_first, first.p_under_second) == (
            Fraction(1, 2),
            Fraction(3, 4),
        )


def _rhs(data):
    """The rational right-hand side: the 16 cells, then 1."""
    return [cell for t in TREATMENTS for cell in data.table(t).cells()] + [Fraction(1)]


# The 16 hidden-state columns of the system {x >= 0, A x = b}: each state's
# deterministic tables, read from its sign string, as the 16 cells, then 1
# for normalization.
STATE_COLUMNS = [[int(state_response(s, t) == pair) for t in TREATMENTS for pair in CELLS] + [1] for s in STATES]

# The 16 cell equations, one per (treatment, outcome pair), then
# normalization, reduced by the rational oracle.
ORACLE = fraction_simplex.reduce_system([[Fraction(col[r]) for col in STATE_COLUMNS] for r in range(17)])


def rank(rows):
    return len(fraction_simplex.reduce_system(rows).pivots)


class TestConstantSystem:
    def test_literal_is_the_reduction_of_the_constraint_matrix(self):
        assert ORACLE.scale == 1
        assert ORACLE.system() == (ROWS, TRANSFORM)
        assert ORACLE.pivots == (0, 1, 2, 4, 5, 6, 8, 9, 10)
        assert {v for row in ROWS for v in row} == {-1, 0, 1}
        assert sum(map(len, TRANSFORM)) == 30

    def test_dropped_rows_are_marginal_selectivity_and_normalization(self):
        # functionals on b, the 16 cells then 1; cell k of treatment t is b[4 t + k]
        def functional(terms):
            row = [Fraction(0)] * 17
            for j, c in terms:
                row[j] += c
            return row

        dropped = [functional(row) for row in ORACLE.transform[len(ORACLE.pivots) :]]
        plus = {"A": (0, 1), "B": (0, 2)}  # the cells where A = +1, B = +1
        compared = [("A", 0, 1), ("A", 2, 3), ("B", 0, 2), ("B", 1, 3)]  # A at a, a'; B at b, b'
        marginals = [
            functional([(4 * t + k, 1) for k in plus[r]] + [(4 * u + k, -1) for k in plus[r]])
            for r, t, u in compared
        ]
        sums = [functional([(4 * t + k, 1) for k in range(4)] + [(16, -1)]) for t in range(4)]
        assert len(dropped) == 8
        assert rank(dropped) == rank(marginals + sums) == rank(dropped + marginals + sums) == 8


def phase_one_rhs(data):
    """T (L b) on the rows of R, the right-hand side the program's phase 1 gets."""
    cells = data.scaled_cells
    return [sum(c * cells[j] for j, c in row) for row in TRANSFORM]


def same_as_the_full_tableau(datas):
    """Check the condensed phase 1 against the full-tableau one on each item's right-hand side; return their count."""
    rhss = list(map(phase_one_rhs, datas))
    for rhs in rhss:
        assert simplex._phase_one(rhs) == full_tableau(rhs)
    return len(rhss)


def cached_states_lie_in_the_state_graph():
    """Whether every step phase 1 has cached is its state's step in the state graph."""
    graph, _ = state_graph()
    return all(graph.get(state) == step for state, step in simplex.STEPS.items())


def program_point(data):
    """The program's phase-1 point for the data as ``Fraction`` weights, or None."""
    found = simplex.feasible_point(data.scaled_cells)
    return None if found is None else [Fraction(v, data.scaled_cells[16]) for v in found]


@pytest.fixture
def phase_one_runs(monkeypatch):
    """A list that grows by one each time the simplex runs phase 1."""
    runs = []
    original = simplex._phase_one
    monkeypatch.setattr(simplex, "_phase_one", lambda *a: runs.append(1) or original(*a))
    return runs


class TestIntegerPhaseOne:
    def test_same_points_as_the_rational_tableau_on_selective_batch_cases(self, phase_one_runs):
        # phase 1 decides each of them
        for data in selective_batch_cases():
            assert program_point(data) == fraction_simplex.feasible_point(ORACLE, _rhs(data))
        assert len(phase_one_runs) == 400

    def test_same_verdicts_and_points_as_the_rational_oracle_on_the_corpus(self):
        # the solver sees only data that satisfies marginal selectivity exactly;
        # on the rest the oracle's consistency rows must reject
        solved = 0
        for data in corpus():
            chsh, marginals = compute_gamma(data), check_marginal_selectivity(data)
            expected = fraction_simplex.feasible_point(ORACLE, _rhs(data))
            result = solve_feasibility(data, chsh, marginals)
            assert result.feasible == (expected is not None)
            if result.feasible:
                assert list(result.witness.weights) == expected
            if marginals.max_delta == 0:
                solved += 1
                assert program_point(data) == expected
            else:
                assert expected is None
        assert solved > 80

    def test_a_nonnegative_basic_solution_with_zeros_is_phase_ones_point(self, phase_one_runs):
        # a point mass fills one cell per table: T (L b) is nonnegative with zeros, and phase 1 ends at it
        dist = point_mass_distribution("+-+-")
        data = predicted_tables(dist)
        assert min(phase_one_rhs(data)) == 0
        assert program_point(data) == list(dist.weights) and len(phase_one_runs) == 1

    def test_cell_denominators_at_the_cap_solve_and_render_quickly(self, phase_one_runs):
        data = cap_denominator_push_forward()
        assert math.lcm(*(c.denominator for c in _rhs(data))) == MAX_COMMON_DENOMINATOR - 1
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            report = analyze(data)
            json.dumps(report_to_json_dict(report, include_witness=True))
            render_report_text(report, include_witness=True)
            best = min(best, time.perf_counter() - start)
        assert len(phase_one_runs) == 3
        assert verify_witness(report.feasibility.witness, data)
        # about 25 ms on a 2-CPU host with Python 3.11, most of it CHSH sums and rendering
        assert best < 0.25


class TestCondensedTableau:
    """The program pivots only the nonbasic columns; every pivot and point is the full tableau's, whose divisor stays 1.

    The full tableau also drives out the artificials left basic at zero, which
    the program does not; on this system the divisor stays 1 there too.
    """

    def test_selective_batch_cases(self, full_tableau_runs):
        rhss = list(map(phase_one_rhs, selective_batch_cases()))
        driven_out = [[] for _ in rhss]
        expected = [full_tableau(rhs, rows) for rhs, rows in zip(rhss, driven_out)]
        for rhs, found in zip(rhss, expected):  # cold: each call runs the full tableau at most once
            runs = len(full_tableau_runs)
            assert simplex._phase_one(rhs) == found
            assert len(full_tableau_runs) - runs <= 1
        # the fixture emptied the cache: these cases fill 688 states, all in the state graph
        assert len(simplex.STEPS) == 688 and cached_states_lie_in_the_state_graph()
        # Warm, no call runs the full tableau, and so neither do the feasible runs that
        # end with an artificial basic at zero, which only the full tableau drives out
        runs = len(full_tableau_runs)
        for rhs, found in zip(rhss, expected):
            assert simplex._phase_one(rhs) == found
        assert len(full_tableau_runs) == runs
        assert sum(map(bool, driven_out)) >= 60  # 68 of 400

    def test_digest_corpus(self, full_tableau_runs):
        # phase 1 sees only data that satisfies marginal selectivity exactly
        exact = [data for data in corpus() if check_marginal_selectivity(data).max_delta == 0]
        assert same_as_the_full_tableau(exact) > 70
        assert simplex.STEPS and cached_states_lie_in_the_state_graph()

    def test_cap_size_push_forward(self):
        assert same_as_the_full_tableau([cap_denominator_push_forward()]) == 1


class TestWitnessShape:
    def test_every_witness_is_basic_and_an_integer_over_the_cells_denominator(self):
        # phase 1 ends at a basic solution of the rank-9 system, and every pivot is 1,
        # so each weight times L, the cells' common denominator, is an integer
        witnesses = 0
        for data in [*selective_batch_cases(), *corpus(), cap_denominator_push_forward()]:
            witness = solve_feasibility(data, compute_gamma(data), check_marginal_selectivity(data)).witness
            if witness is not None:
                witnesses += 1
                assert sum(w != 0 for w in witness.weights) <= 9
                assert all((w * data.scaled_cells[16]).denominator == 1 for w in witness.weights)
        assert witnesses == 472


class TestSmallDenominators:
    """All small inputs: every exactly selective experiment whose cells are multiples of 1/d, for d <= 4.

    Most defects show on some small input, so try every one; random data
    missed the ratio test's tie-breaking, which 3 of these points expose.
    ``small_scope`` checks each verdict, witness and certificate, and one
    neighbour of each experiment; at d <= 3 each point is also the oracle's.
    """

    def test_verdicts_witnesses_and_points(self):
        checked = feasible = 0
        for d in (1, 2, 3, 4):
            for cells, result in checked_grid(d):
                checked += 1
                feasible += result.feasible
                if d <= 3:
                    data = experiment(cells, d)
                    assert program_point(data) == fraction_simplex.feasible_point(ORACLE, _rhs(data))
        assert (checked, feasible) == (4009, 3641)


def solver_farkas_vector(data):
    """T^T u for the rational oracle's u on a positive phase-1 optimum, as integers over the 17 equations, or None."""
    u = fraction_simplex.phase_one_farkas(ORACLE, _rhs(data))
    if u is None:
        return None
    w = [Fraction(0)] * 17
    for u_i, row in zip(u, ORACLE.transform):
        for j, c in row:
            w[j] += u_i * c
    return over_common_denominator(w)[0]  # a positive multiple: the same signs


class TestSolverFarkasVector:
    """Phase 1's own proof of infeasibility, checked against the 16 state columns and the data."""

    def test_every_infeasible_phase_one_item_has_one(self, table2):
        # the goldens, pr_box and the seeded corpora; Fine's certificates are checked elsewhere
        seen = feasible = 0
        for data in [*corpus(), *selective_batch_cases()]:
            marginals = check_marginal_selectivity(data)
            if marginals.max_delta != 0:
                continue
            if solve_feasibility(data, compute_gamma(data), marginals).feasible:
                feasible += 1
                if feasible <= 20:
                    assert solver_farkas_vector(data) is None
                continue
            seen += 1
            w = solver_farkas_vector(data)
            assert type(w[0]) is int and is_farkas_vector(w, data)
        assert seen >= 10 and feasible > 400
        for data in (table2, pr_box()):
            assert is_farkas_vector(solver_farkas_vector(data), data)


class TestFineEquivalence:
    def test_verdict_equals_criterion_on_selective_data(self):
        rng = random.Random(54)
        for _ in range(150):
            data = random_ms_data(rng)
            assert analyze(data).feasibility.feasible == fine_criterion(data)

    def test_verdict_equals_criterion_on_box_mixtures(self):
        rng = random.Random(55)
        box = pr_box()
        for _ in range(100):
            local = predicted_tables(random_hidden_distribution(rng))
            lam = Fraction(rng.randint(0, 16), 16)
            data = mix_experiments(box, local, lam)
            assert analyze(data).feasibility.feasible == fine_criterion(data)

    def test_golden_tables_all_fail_criterion(self, table1, table2, table3):
        assert not fine_criterion(table1)  # marginal selectivity fails, gamma = 0
        assert not fine_criterion(table2)  # gamma = 4, marginal selectivity holds
        assert not fine_criterion(table3)  # both fail

    def test_certificates_reevaluate_as_violated(self):
        rng = random.Random(56)
        box = pr_box()
        seen_facet = seen_marginal = 0
        for _ in range(150):
            kind = rng.randrange(3)
            if kind == 0:
                data = random_any_data(rng)
            elif kind == 1:
                data = mix_experiments(
                    box,
                    predicted_tables(random_hidden_distribution(rng)),
                    Fraction(rng.randint(12, 16), 16),
                )
            else:
                data = random_ms_data(rng)
            result = analyze(data).feasibility
            if result.feasible:
                continue
            for cert in (result.certificate, *result.all_violations):
                if isinstance(cert, FacetViolation):
                    seen_facet += 1
                    assert chsh_facet_value(data, cert.pattern) == cert.value > 2
                else:
                    seen_marginal += 1
                    report = check_marginal_selectivity(data, 0)
                    match = comparison(report, cert.fixed_level)
                    assert match == cert
                    assert cert.delta > 0
        assert seen_facet > 0 and seen_marginal > 0

    def test_fine_violations_empty_iff_criterion_holds(self):
        # Fine's closed form against the simplex verdict, on both generators
        rng = random.Random(57)
        for _ in range(100):
            data = random_ms_data(rng) if rng.random() < 0.5 else random_any_data(rng)
            violations = fine_violations(compute_gamma(data), check_marginal_selectivity(data))
            assert (not violations) == analyze(data).feasibility.feasible

    def test_the_facets_are_the_sums_above_two(self):
        # every report of expectations in {-1, -1/2, 0, 1/2, 1}: some facets sum to exactly 2, which is not violated
        selective = check_marginal_selectivity(predicted_tables(uniform_distribution()))
        at_two = 0
        for values in itertools.product([Fraction(k, 2) for k in range(-2, 3)], repeat=4):
            chsh = ChshReport(dict(zip(TREATMENTS, values)))
            expected = [FacetViolation(p, v) for p, v in chsh.sums.items() if v > 2]
            assert fine_violations(chsh, selective) == expected
            at_two += sum(v == 2 for v in chsh.sums.values())
        assert at_two > 0


def dot(w, v):
    return sum(x * y for x, y in zip(w, v, strict=True))


def certificate_functional(cert):
    """A certificate as an integer functional on (the 16 cells, normalization)."""
    w = [0] * 17
    if isinstance(cert, FacetViolation):
        # 2 * normalization - S, S = sum over treatments k of s_k (pp - pm - mp + mm)
        w[16] = 2
        for k, s in enumerate(pattern_signs(cert.pattern)):
            for c, e in enumerate((1, -1, -1, 1)):
                w[4 * k + c] = -s * e
        return w
    # the two marginals' difference, in the sign the data violates; each
    # compared treatment holds the response's own factor at the fixed level
    level = cert.fixed_level
    first, second = (k for k, t in enumerate(TREATMENTS) if level in (t.alpha, t.beta))
    plus = (0, 1) if cert.response == "A" else (0, 2)  # the cells where the response is +1
    sign = 1 if cert.p_under_first < cert.p_under_second else -1
    for c in plus:
        w[4 * first + c] += sign
        w[4 * second + c] -= sign
    return w


def nonnegative_on_states(w):
    return all(dot(w, col) >= 0 for col in STATE_COLUMNS)


def is_farkas_vector(w, data):
    """w >= 0 on every state column and w < 0 on the data, on integers over the cells' lcd.

    By Farkas's lemma {x >= 0, A x = b} is infeasible iff such a w exists.
    """
    cells = [c for t in TREATMENTS for c in data.table(t).cells()]
    lcd = math.lcm(*(c.denominator for c in cells))
    return nonnegative_on_states(w) and dot(w, [c.numerator * (lcd // c.denominator) for c in cells] + [lcd]) < 0


class TestFarkasCertificates:
    def test_every_certificate_is_a_farkas_vector(self):
        # the goldens, pr_box, the seeded conftest corpora and samples, and
        # seeded mixtures of pr_box with push-forwards, which violate facets
        rng = random.Random(62)
        mixtures = [
            mix_experiments(pr_box(), predicted_tables(random_hidden_distribution(rng)), Fraction(rng.randint(9, 16), 16))
            for _ in range(40)
        ]
        seen = {FacetViolation: 0, MarginalComparison: 0}
        for data in [*corpus(), *mixtures]:
            result = analyze(data).feasibility
            if result.feasible:
                continue
            assert result.certificate == result.all_violations[0]
            for cert in result.all_violations:
                seen[type(cert)] += 1
                assert is_farkas_vector(certificate_functional(cert), data), cert
        assert seen[FacetViolation] > 30 and seen[MarginalComparison] > 150

    def test_sign_flipped_certificates_fail(self, table2, table3):
        flipped = 0
        for data in (pr_box(), table2, table3):
            for cert in analyze(data).feasibility.all_violations:
                if isinstance(cert, FacetViolation):
                    w = certificate_functional(FacetViolation(negated(cert.pattern), -cert.value))
                else:
                    w = [-x for x in certificate_functional(cert)]
                assert not is_farkas_vector(w, data)
                flipped += 1
        assert flipped >= 3

    def test_every_state_column_is_checked(self):
        # 3 * normalization minus the four cells state s fills is -1 on s's
        # column and at least 1 on every other, so only s's column rejects it;
        # it is < 0 on the point mass at s, which the solver finds feasible, so
        # a check that skipped s's column would pass it as a Farkas vector
        for state, col in zip(STATES, STATE_COLUMNS):
            w = [-x for x in col[:16]] + [3]
            assert [dot(w, other) < 0 for other in STATE_COLUMNS] == [other is col for other in STATE_COLUMNS]
            assert not nonnegative_on_states(w)
            data = predicted_tables(point_mass_distribution(state))
            assert solve_feasibility(data, compute_gamma(data), check_marginal_selectivity(data)).feasible
            assert dot(w, data.scaled_cells) < 0 and not is_farkas_vector(w, data)


class TestConvexity:
    def test_mixing_feasible_data_stays_feasible(self):
        rng = random.Random(58)
        for _ in range(40):
            d1 = predicted_tables(random_hidden_distribution(rng))
            d2 = predicted_tables(random_hidden_distribution(rng))
            lam = Fraction(rng.randint(0, 12), 12)
            mixed = mix_experiments(d1, d2, lam)
            result = analyze(mixed).feasibility
            assert result.feasible
            assert verify_witness(result.witness, mixed)


class TestGeneralRepresentation:
    def test_reconstructs_golden_tables_exactly(self, table1, table2, table3):
        for data in (table1, table2, table3):
            rec = reconstructed_tables(general_representation(data))
            assert all(rec.table(t) == data.table(t) for t in TREATMENTS)

    def test_exists_even_for_infeasible_data(self, table2):
        assert not analyze(table2).feasibility.feasible
        weights = general_representation(table2)
        assert sum(weights.values()) == 1 and all(w > 0 for w in weights.values())

    def test_point_mass_tables_collapse_to_single_tuple(self):
        data = predicted_tables(point_mass_distribution(HIDDEN_STATES[0]))
        assert general_representation(data) == {((1, 1), (1, 1), (1, 1), (1, 1)): Fraction(1)}

    def test_reconstruction_on_random_tables(self):
        rng = random.Random(59)
        for _ in range(60):
            data = random_any_data(rng)
            weights = general_representation(data)
            assert all(w > 0 for w in weights.values()) and sum(weights.values()) == 1
            assert all(len(tup) == 4 and set(tup) <= set(CELLS) for tup in weights)
            rec = reconstructed_tables(weights)
            assert all(rec.table(t) == data.table(t) for t in TREATMENTS)

    def test_at_most_256_states(self):
        rng = random.Random(60)
        data = random_any_data(rng)
        assert len(general_representation(data)) <= 256
        uniform = {t: uniform_table() for t in TREATMENTS}
        assert len(general_representation(ExperimentData(tables=uniform))) == 256


class TestVerifyWitness:
    def test_uniform_pair(self):
        data = predicted_tables(uniform_distribution())
        assert verify_witness(uniform_distribution(), data)

    def test_wrong_witness_rejected(self, table2):
        point = point_mass_distribution(HIDDEN_STATES[0])
        assert not verify_witness(point, table2)

    def test_solver_witnesses_always_verify(self):
        rng = random.Random(61)
        for _ in range(50):
            data = random_ms_data(rng)
            result = analyze(data).feasibility
            if result.feasible:
                assert verify_witness(result.witness, data)

    def test_the_vector_check_is_the_table_check(self):
        # solver witnesses of the first selective-batch cases, each with its own data, with the next case's data, and
        # after one unit of numerator moves from one of its states to any other, which changes some cell
        def by_tables(dist, data):
            predicted = predicted_tables(dist)
            return all(predicted.table(t) == data.table(t) for t in TREATMENTS)

        datas = [data for _, data in zip(range(12), selective_batch_cases())]
        found = [(analyze(data).feasibility.witness, data) for data in datas]
        found = [(dist, data) for dist, data in found if dist is not None]
        assert len(found) >= 8
        # and the uniform weights on all 16 states, or on the 8 with one level's sign fixed, each with its push-forward:
        # the weights' denominator M is 16 or 8, and the cells reduce to L = 4 or 2
        for states in [HIDDEN_STATES] + [[s for s in HIDDEN_STATES if s[i] == sign] for i in range(4) for sign in "+-"]:
            dist = HiddenStateDistribution.from_mapping(dict.fromkeys(states, Fraction(1, len(states))))
            data = predicted_tables(dist)
            assert data.scaled_cells[16] < dist.scaled_weights[16]
            found.append((dist, data))
        for (dist, data), (_, other) in zip(found, found[1:] + found[:1]):
            assert verify_witness(dist, data) is by_tables(dist, data) is True
            assert verify_witness(dist, other) is by_tables(dist, other) is False
            *numerators, lcd = dist.scaled_weights
            for i in (i for i, p in enumerate(numerators) if p):
                for j in set(range(16)) - {i}:
                    moved = list(numerators)
                    moved[i], moved[j] = moved[i] - 1, moved[j] + 1
                    shifted = HiddenStateDistribution(tuple(Fraction(p, lcd) for p in moved))
                    assert verify_witness(shifted, data) is by_tables(shifted, data) is False

    def test_comparing_the_vectors_builds_no_fraction(self, fractions_built, tables_built):
        data = next(selective_batch_cases())
        dist, uniform = analyze(data).feasibility.witness, uniform_distribution()
        fractions_built.clear()
        tables_built.clear()
        assert verify_witness(dist, data) and not verify_witness(uniform, data)
        assert fractions_built == tables_built == []

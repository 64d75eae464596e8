"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the asserts themselves carry the stated tolerances.
"""

import random
import time
from fractions import Fraction

from selinf.chsh import compute_gamma
from selinf.feasibility import (
    FacetViolation,
    construct_general_representation,
    fine_criterion,
    predicted_tables,
    solve_feasibility,
    verify_witness,
)
from selinf.model import TREATMENTS, CountTable, ExperimentData
from selinf.selectivity import (
    MarginalComparison,
    check_marginal_selectivity,
    test_marginal_selectivity as run_ms_test,
)
from selinf.simulate import Model, SampleSpec, sample_counts
from selinf.io import analyze, serialize_experiment

from conftest import pr_box, random_any_data, random_hidden_distribution, random_ms_data
from relabel import (
    chsh_facet_value,
    comparison,
    flip_a_coding,
    flip_b_coding,
    mix_experiments,
    reconstructed_tables,
    sign_pattern,
    swap_alpha_levels,
    swap_beta_levels,
    uniform_distribution,
)

# Documented Monte-Carlo seed for the sampling criteria (also in the README).
DOCUMENTED_SEED = 2026


def _passed(n, message):
    print(f"[acceptance] criterion {n}: PASS - {message}")


def _min_analysis_seconds(data, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solve_feasibility(data, compute_gamma(data), check_marginal_selectivity(data, 0))
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_zero_gamma_with_marginal_violation(table1):
    report = compute_gamma(table1)
    assert report.gamma == 0

    ms = check_marginal_selectivity(table1, 0)
    assert not ms.satisfied
    b_at_b = comparison(ms, "b")
    assert b_at_b.p_under_first == Fraction(5, 10)
    assert b_at_b.p_under_second == Fraction(4, 10)

    result = analyze(table1).feasibility
    assert not result.feasible
    assert isinstance(result.certificate, MarginalComparison)

    elapsed = _min_analysis_seconds(table1)
    assert elapsed < 0.010, f"analysis took {elapsed * 1000:.2f} ms"
    _passed(1, f"Gamma = 0, B-at-b .5 vs .4, marginal certificate, {elapsed * 1000:.1f} ms")


def test_criterion_2_extremal_box(table2):
    report = compute_gamma(table2)
    assert report.gamma == 4
    assert report.argmax_patterns == frozenset({sign_pattern(1, 1, 1, -1)})
    assert report.classification.value == "supra-quantum"

    ms = check_marginal_selectivity(table2, 0)
    assert ms.satisfied
    assert ms.max_delta == 0

    result = analyze(table2).feasibility
    assert not result.feasible
    assert isinstance(result.certificate, FacetViolation)

    elapsed = _min_analysis_seconds(table2)
    assert elapsed < 0.010, f"analysis took {elapsed * 1000:.2f} ms"
    _passed(2, f"Gamma = 4 at +++-, facet certificate, supra-quantum, {elapsed * 1000:.1f} ms")


def test_criterion_3_observed_experiment(table3):
    report = compute_gamma(table3)
    assert Fraction(2415, 1000) <= report.gamma <= Fraction(2425, 1000)

    ms = check_marginal_selectivity(table3, 0)
    assert not ms.satisfied
    cat_under_b, cat_under_b_prime = comparison(ms, "a'").complements()
    assert abs(cat_under_b - Fraction(135, 1000)) <= Fraction(2, 1000)
    assert abs(cat_under_b_prime - Fraction(766, 1000)) <= Fraction(2, 1000)

    assert not analyze(table3).feasibility.feasible
    _passed(
        3,
        f"Gamma = {float(report.gamma):.4f} in [2.415, 2.425], "
        f"Cat {float(cat_under_b):.3f} vs {float(cat_under_b_prime):.3f}, infeasible",
    )


def test_criterion_4_fine_equivalence_property_suite():
    start = time.monotonic()
    rng = random.Random(20250404)

    for _ in range(1000):
        data = predicted_tables(random_hidden_distribution(rng))
        assert analyze(data).feasibility.feasible
        assert check_marginal_selectivity(data, 0).satisfied
        assert compute_gamma(data).gamma <= 2

    agreements = 0
    for _ in range(1000):
        data = random_ms_data(rng)
        assert analyze(data).feasibility.feasible == fine_criterion(data)
        agreements += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"suite took {elapsed:.1f} s"
    _passed(4, f"1000 push-forwards feasible, 1000 selective tables agree, {elapsed:.1f} s")


def test_criterion_5_witness_and_certificate_soundness():
    rng = random.Random(20250505)
    box = pr_box()
    n_feasible = n_infeasible = 0
    for i in range(1000):
        kind = i % 3
        if kind == 0:
            data = predicted_tables(random_hidden_distribution(rng))
        elif kind == 1:
            data = random_ms_data(rng)
        else:
            local = predicted_tables(random_hidden_distribution(rng))
            data = mix_experiments(box, local, Fraction(rng.randint(0, 16), 16))
        result = analyze(data).feasibility
        if result.feasible:
            n_feasible += 1
            assert verify_witness(result.witness, data)
        else:
            n_infeasible += 1
            assert result.certificate is not None
            for cert in result.all_violations:
                if isinstance(cert, FacetViolation):
                    assert chsh_facet_value(data, cert.pattern) == cert.value
                    assert cert.value > 2
                else:
                    report = check_marginal_selectivity(data, 0)
                    assert comparison(report, cert.fixed_level) == cert
                    assert cert.delta > 0
    assert n_feasible >= 100 and n_infeasible >= 100, (n_feasible, n_infeasible)
    _passed(5, f"{n_feasible} witnesses verified, {n_infeasible} certificates re-violated")


def test_criterion_6_general_representation_reconstructs(table1, table2, table3):
    rng = random.Random(20250606)
    datasets = [table1, table2, table3] + [random_any_data(rng) for _ in range(100)]
    for data in datasets:
        rep = construct_general_representation(data)
        rec = reconstructed_tables(rep)
        assert all(rec.table(t) == data.table(t) for t in TREATMENTS)
    _passed(6, "3 golden + 100 random tables reconstructed exactly (256-state source)")


def test_criterion_7_statistical_rejection_at_n81():
    # counts = round(81 * p) from the observed decimal tables
    cells = ((4, 51, 21, 5), (48, 2, 24, 7), (63, 7, 7, 4), (12, 7, 8, 54))
    counts = {t: CountTable(*c) for t, c in zip(TREATMENTS, cells)}
    data = ExperimentData(
        tables={t: c.normalized() for t, c in counts.items()}, counts=counts
    )
    results = run_ms_test(data, check_marginal_selectivity(data), alpha_sig=0.05)
    cat = results[1]  # A at a' (+1 = Tiger, so complements are the Cat rates)
    assert abs(cat.z_statistic) > 1.96
    assert 7.9 < abs(cat.z_statistic) < 8.2  # derived value ~= 8.07
    assert cat.reject

    flat = {t: CountTable(20, 20, 20, 20) for t in TREATMENTS}
    flat_data = ExperimentData(
        tables={t: c.normalized() for t, c in flat.items()}, counts=flat
    )
    flat_results = run_ms_test(flat_data, check_marginal_selectivity(flat_data))
    assert all(r.z_statistic == 0.0 and not r.reject for r in flat_results)
    _passed(7, f"Cat comparison |z| = {abs(cat.z_statistic):.2f} > 1.96 rejected; flat data z = 0")


def test_criterion_8_relabeling_invariance():
    relabelings = (
        lambda d: flip_a_coding(d, "a"),
        lambda d: flip_a_coding(d, "a'"),
        lambda d: flip_a_coding(d),
        lambda d: flip_b_coding(d, "b"),
        lambda d: flip_b_coding(d, "b'"),
        lambda d: flip_b_coding(d),
        swap_alpha_levels,
        swap_beta_levels,
    )
    rng = random.Random(20250808)
    for _ in range(200):
        data = random_any_data(rng)
        gamma = compute_gamma(data).gamma
        for fn in relabelings:
            assert compute_gamma(fn(data)).gamma == gamma
    _passed(8, "Gamma exactly invariant under all 8 relabelings on 200 datasets")


def test_criterion_9_simulator_reproducibility_and_convergence():
    uniform = Model(uniform_distribution())

    spec = SampleSpec(n_per_treatment=500, seed=DOCUMENTED_SEED)
    first = serialize_experiment(sample_counts(uniform, spec)).encode()
    second = serialize_experiment(sample_counts(uniform, spec)).encode()
    assert first == second

    sampled = sample_counts(uniform, SampleSpec(10**5, DOCUMENTED_SEED))
    empirical_gamma = float(compute_gamma(sampled).gamma)
    assert empirical_gamma < 0.05
    _passed(9, f"byte-identical reruns; empirical Gamma = {empirical_gamma:.4f} < 0.05 at n = 1e5")

"""Tests of the benchmark itself: its checks must be able to fail."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bench import checks, inputs
from bench.hostref import HostClock, reference_job
from bench.run import Tally, run_items, tail
from bench.tracing import Span, Tracer, layer_stats, patched_call_sites
from bench.workloads import PowerStudy, SelectiveBatch

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def validator():
    return checks.load_validator()


@pytest.fixture(scope="module")
def batch(validator):
    workload = SelectiveBatch(seed=7, validator=validator)
    workload.setup()
    return workload


def first_item(batch, feasible: bool) -> int:
    return next(i for i, c in enumerate(batch.cases) if checks.Truth(c.cells).feasible == feasible)


class Corrupting:
    """A workload whose JSON reports are altered after the program wrote them."""

    def __init__(self, inner, corrupt) -> None:
        self.inner = inner
        self.corrupt = corrupt
        self.name = inner.name

    def run_item(self, i):
        data, report, text = self.inner.run_item(i)
        return data, report, json.dumps(self.corrupt(json.loads(text)), indent=2)

    def check_item(self, i, output):
        return self.inner.check_item(i, output)


def test_untouched_reports_pass(batch):
    tally = Tally()
    run_items(batch, tally, HostClock(), count=6)
    assert (tally.attempted, tally.failed) == (6, 0), tally.examples


def flip_verdict(doc):
    feas = doc["feasibility"]
    feas["verdict"] = "infeasible" if feas["verdict"] == "feasible" else "feasible"
    return doc


def shift_witness_weight(doc):
    witness = doc["feasibility"]["witness"]
    if witness:
        states = sorted(witness)
        delta = Fraction(1, 1000)
        witness[states[0]] = str(Fraction(witness[states[0]]) + delta)
        if len(states) > 1:
            witness[states[1]] = str(Fraction(witness[states[1]]) - delta)
    return doc


@pytest.mark.parametrize(
    "corrupt, hits",
    [(flip_verdict, lambda truth: True), (shift_witness_weight, lambda truth: truth.feasible)],
)
def test_corrupted_reports_count_as_failures(validator, corrupt, hits):
    inner = SelectiveBatch(seed=7, validator=validator)
    inner.setup()
    n = 8
    expected = sum(hits(checks.Truth(c.cells)) for c in inner.cases[:n])
    tally = Tally()
    run_items(Corrupting(inner, corrupt), tally, HostClock(), count=n)
    assert expected > 0
    assert (tally.attempted, tally.failed) == (n, expected)


def test_certificate_is_rederived_from_the_data(batch):
    i = first_item(batch, feasible=False)
    truth = checks.Truth(batch.cases[i].cells)
    doc = json.loads(batch.run_item(i)[2])
    assert checks.check_report_doc(truth, doc) == []
    cert = doc["feasibility"]["certificate"]
    if cert["kind"] == "chsh_facet":
        cert["value"] = str(Fraction(cert["value"]) + 1)
    else:
        cert["p_under_first"] = str(Fraction(cert["p_under_first"]) / 2)
    doc["feasibility"]["all_violations"][0] = cert
    assert checks.check_report_doc(truth, doc)


def test_text_report_and_z_test_checks_catch_changes(validator):
    workload = PowerStudy(seed=3, validator=validator)
    workload.setup()
    output = workload.run_item(0)
    assert workload.check_item(0, output) == []
    data, text, parsed, report, rendered = output
    assert workload.check_item(0, (data, text, parsed, report, rendered.replace("INFEASIBLE", "FEASIBLE")))
    cells, counts = checks.count_truth(text)
    from selinf.io import report_to_json_dict

    doc = report_to_json_dict(report)
    doc["statistical_tests"][0]["z"] += 0.5
    assert checks.check_z_tests(doc, counts)


def test_selftest_check_needs_three_pass_lines():
    good = "PASS table1: x\nPASS table2: y\nPASS table3: z\n"
    assert checks.check_cli_selftest(0, good, "") == []
    assert checks.check_cli_selftest(0, good.replace("PASS table2", "FAIL table2"), "")
    assert checks.check_cli_selftest(1, good, "")


def test_inputs_depend_only_on_the_seed():
    first = inputs.selective_cases(random.Random(5), 6)
    again = inputs.selective_cases(random.Random(5), 6)
    other = inputs.selective_cases(random.Random(6), 6)
    assert first == again != other
    assert inputs.power_model_texts(random.Random(5), 4) == inputs.power_model_texts(random.Random(5), 4)


def test_push_forward_matches_the_program(batch):
    from selinf.feasibility import HiddenStateDistribution, predicted_tables
    from selinf.model import TREATMENTS

    weights = inputs.random_hidden_weights(random.Random(11))
    ours = inputs.push_forward(weights)
    theirs = predicted_tables(HiddenStateDistribution(tuple(weights)))
    assert {t.key: theirs.table(t).cells() for t in TREATMENTS} == ours


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 1001)]) == (990.0, 99, 10)
    assert tail([float(v) for v in range(1, 501)]) == (450.0, 90, 50)


def test_self_time_subtracts_child_spans():
    root = Span("item", 0, -1, 0)
    root.end = 100
    child = Span("a", 10, 0, 0)
    child.end = 40
    grandchild = Span("b", 20, 1, 0)
    grandchild.end = 30
    stats = layer_stats([root, child, grandchild], {0: 2.0})
    assert (stats["item"].busy_ns, stats["item"].self_ns) == (200, 140)
    assert (stats["a"].busy_ns, stats["a"].self_ns) == (60, 40)
    assert stats["b"].self_ns == 20


def test_call_sites_are_restored_and_only_items_are_traced(batch):
    import selinf.feasibility

    original = selinf.feasibility.feasible_point
    tracer = Tracer()
    with patched_call_sites(tracer):
        assert selinf.feasibility.feasible_point is not original
        batch.run_item(0)
        assert tracer.spans == []
        tracer.item = 0
        batch.run_item(0)
    assert selinf.feasibility.feasible_point is original
    assert {s.name for s in tracer.spans} >= {"simplex.feasible_point", "feasibility.solve_feasibility"}


def test_scale_ignores_one_stalled_reference_sample():
    assert reference_job() == reference_job()
    clock = HostClock()
    clock.samples_ms = [5.0, 50.0, 5.0]
    assert clock.scale() == HostClock.nominal_ms / 5.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selective-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Correctness checks on the program's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output
passed. The checks re-derive every answer by a route the program does not
take: marginals, CHSH facets and Fine's criterion (Fine 1982, PRL 48:291)
are recomputed here from the benchmark's own exact tables, witnesses are
pushed forward here, and z statistics are recomputed from the counts.
The program's own ``fine_criterion`` and ``verify_witness`` are consulted
as well, so the simplex verdict is compared with two closed-form routes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from importlib import resources
from typing import Any, Mapping

import jsonschema
from selinf.feasibility import fine_criterion, verify_witness
from selinf.io import report_from_json_dict

from bench.inputs import STATES, TREATMENT_KEYS, Cells, push_forward

# Comparison order of the report: A at a, A at a', B at b, B at b'. Each entry
# names the response, the fixed level and the two treatments compared.
COMPARISONS = (
    ("A", "a", "a,b", "a,b'"),
    ("A", "a'", "a',b", "a',b'"),
    ("B", "b", "a,b", "a',b"),
    ("B", "b'", "a,b'", "a',b'"),
)
# Odd-plus sign patterns in the program's lexicographic order, "+" first.
PATTERNS = tuple(s for s in STATES if s.count("+") % 2 == 1)


def load_validator() -> jsonschema.protocols.Validator:
    """A validator for the report schema the program ships."""
    text = (resources.files("selinf") / "schema" / "analysis_report.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


class Truth:
    """Marginals, facets and the closed-form verdict of one set of exact tables."""

    def __init__(self, cells: Cells) -> None:
        self.cells = cells
        expect = {k: pp - pm - mp + mm for k, (pp, pm, mp, mm) in cells.items()}
        pr_plus = {
            "A": {k: pp + pm for k, (pp, pm, _, _) in cells.items()},
            "B": {k: pp + mp for k, (pp, _, mp, _) in cells.items()},
        }
        self.comparisons = {
            (resp, level): (pr_plus[resp][first], pr_plus[resp][second])
            for resp, level, first, second in COMPARISONS
        }
        self.facets = {
            p: sum(
                (e if sign == "+" else -e for sign, e in zip(p, (expect[k] for k in TREATMENT_KEYS))),
                Fraction(0),
            )
            for p in PATTERNS
        }
        self.gamma = max(self.facets.values())
        self.violations = [
            ("marginal", resp, level)
            for resp, level, _, _ in COMPARISONS
            if self.comparisons[(resp, level)][0] != self.comparisons[(resp, level)][1]
        ] + [("chsh_facet", p) for p in PATTERNS if self.facets[p] > 2]
        self.feasible = not self.violations


def _violation_problems(truth: Truth, cert: Mapping[str, Any]) -> list[str]:
    if cert.get("kind") == "chsh_facet":
        pattern = cert["pattern"]
        value = Fraction(cert["value"])
        if value != truth.facets.get(pattern) or value <= 2:
            return [f"facet {pattern} = {value} is not a facet value above 2 of the data"]
        return []
    first, second = Fraction(cert["p_under_first"]), Fraction(cert["p_under_second"])
    key = (cert["response"], cert["fixed_level"])
    if truth.comparisons.get(key) != (first, second):
        return [f"marginal certificate {key} quotes {first} vs {second}, not the data's marginals"]
    delta = Fraction(cert["delta"])
    if delta != abs(first - second) or delta <= 0:
        return [f"marginal certificate {key} has delta {delta}, expected {abs(first - second)} > 0"]
    return []


def _violation_id(cert: Mapping[str, Any]) -> tuple:
    if cert.get("kind") == "chsh_facet":
        return ("chsh_facet", cert.get("pattern"))
    return ("marginal", cert.get("response"), cert.get("fixed_level"))


def check_report_doc(truth: Truth, doc: Mapping[str, Any]) -> list[str]:
    """Compare a JSON report with the answers re-derived from the exact tables."""
    problems = []
    if Fraction(doc["chsh"]["gamma"]) != truth.gamma:
        problems.append(f"gamma {doc['chsh']['gamma']} differs from the data's {truth.gamma}")
    feas = doc["feasibility"]
    expected = "feasible" if truth.feasible else "infeasible"
    if feas["verdict"] != expected:
        return problems + [f"verdict {feas['verdict']!r}, Fine's criterion says {expected!r}"]
    if truth.feasible:
        witness = feas["witness"]
        if feas["certificate"] is not None or feas["all_violations"]:
            problems.append("feasible report carries a certificate")
        if witness is None:
            return problems + ["feasible report has no witness"]
        weights = [Fraction(witness.get(s, 0)) for s in STATES]
        if any(w < 0 for w in weights) or sum(weights) != 1 or len(witness) != sum(1 for w in weights if w):
            problems.append("witness is not a distribution over the 16 hidden states")
        elif push_forward(weights) != truth.cells:
            problems.append("witness does not reproduce the data")
        return problems
    if feas["witness"] is not None:
        problems.append("infeasible report carries a witness")
    violations = feas["all_violations"]
    if feas["certificate"] is None or not violations or feas["certificate"] != violations[0]:
        return problems + ["certificate is missing or is not the first listed violation"]
    if [_violation_id(c) for c in violations] != truth.violations:
        problems.append(f"violations {[_violation_id(c) for c in violations]} differ from {truth.violations}")
    for cert in violations:
        problems += _violation_problems(truth, cert)
    return problems


def check_json_report(
    truth: Truth,
    text: str,
    report: Any,
    data: Any,
    validator: jsonschema.protocols.Validator,
) -> list[str]:
    """Every check on one JSON report, rendered with its witness, of ``data``."""
    try:
        doc = json.loads(text)
        error = next(iter(validator.iter_errors(doc)), None)
        if error is not None:
            return [f"report fails the schema: {error.message}"]
        problems = check_report_doc(truth, doc)
        if report_from_json_dict(doc) != report:
            problems.append("report_from_json_dict does not give back the report")
        feasible = doc["feasibility"]["verdict"] == "feasible"
        if fine_criterion(data) != feasible:
            problems.append("verdict differs from fine_criterion")
        if feasible and report.feasibility.witness is not None:
            if not verify_witness(report.feasibility.witness, data):
                problems.append("verify_witness rejects the witness")
        return problems
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


def count_truth(serialized: str) -> tuple[Cells, dict[str, tuple[int, int, int, int]]]:
    """Exact tables and counts read from a serialized experiment with nested counts."""
    doc = json.loads(serialized)
    counts = {}
    cells = {}
    for key in TREATMENT_KEYS:
        block = doc["treatments"][key]
        ct = tuple(block["counts"][ck] for ck in ("pp", "pm", "mp", "mm"))
        n = sum(ct)
        counts[key] = ct
        cells[key] = tuple(Fraction(c, n) for c in ct)
        if tuple(Fraction(block[ck]) for ck in ("pp", "pm", "mp", "mm")) != cells[key]:
            raise ValueError(f"treatment {key}: serialized probabilities differ from counts / n")
    return cells, counts


def check_z_tests(doc: Mapping[str, Any], counts: Mapping[str, tuple[int, int, int, int]]) -> list[str]:
    """Recompute each pooled two-proportion z statistic from the raw counts."""
    tests = doc.get("statistical_tests")
    if tests is None or len(tests) != len(COMPARISONS):
        return ["report has no statistical tests for count data"]
    problems = []
    for test, (resp, level, first, second) in zip(tests, COMPARISONS):
        idx = (0, 1) if resp == "A" else (0, 2)
        x1 = sum(counts[first][i] for i in idx)
        x2 = sum(counts[second][i] for i in idx)
        n1, n2 = sum(counts[first]), sum(counts[second])
        pooled = (x1 + x2) / (n1 + n2)
        diff = x1 / n1 - x2 / n2
        if pooled in (0.0, 1.0):
            z = 0.0 if x1 * n2 == x2 * n1 else math.copysign(math.inf, diff)
        else:
            z = diff / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        if (test["n_first"], test["n_second"]) != (n1, n2):
            problems.append(f"z-test {resp} at {level}: sample sizes differ from the counts")
        got = test["z"]
        if not (got == z or abs(got - z) <= 1e-9 * max(1.0, abs(z))):
            problems.append(f"z-test {resp} at {level}: z = {got}, counts give {z}")
    return problems


def check_text_report(truth: Truth, text: str) -> list[str]:
    """The rendered text states the data's gamma and verdict."""
    verdict = "FEASIBLE (a witness" if truth.feasible else "INFEASIBLE"
    problems = []
    if f"Hidden-state model: {verdict}" not in text:
        problems.append("text report states the wrong verdict")
    if f"Gamma = {truth.gamma} " not in text:
        problems.append("text report states the wrong gamma")
    return problems


# Known answers of the shipped golden tables: table1 is refuted by a marginal
# comparison, table2 (the extremal box) by a CHSH facet found after phase 1,
# and table3 violates both kinds of condition.
GOLDEN_ANSWERS = {
    "table1": {"certificate": "marginal", "kinds": {"marginal"}},
    "table2": {"certificate": "chsh_facet", "kinds": {"chsh_facet"}},
    "table3": {"certificate": "marginal", "kinds": {"marginal", "chsh_facet"}},
}


def check_cli_analyze(
    name: str,
    returncode: int,
    stdout: str,
    stderr: str,
    expected_stdout: str,
    validator: jsonschema.protocols.Validator,
) -> list[str]:
    """One ``analyze --json`` process on a golden table."""
    try:
        doc = json.loads(stdout)
        error = next(iter(validator.iter_errors(doc)), None)
        if error is not None:
            return [f"{name}: output fails the schema: {error.message}"]
        feas = doc["feasibility"]
        answer = GOLDEN_ANSWERS[name]
        problems = []
        if returncode != (0 if feas["verdict"] == "feasible" else 1):
            problems.append(f"{name}: exit code {returncode} does not match verdict {feas['verdict']}")
        if feas["verdict"] != "infeasible" or feas["certificate"]["kind"] != answer["certificate"]:
            problems.append(f"{name}: expected an infeasible verdict with a {answer['certificate']} certificate")
        if {c["kind"] for c in feas["all_violations"]} != answer["kinds"]:
            problems.append(f"{name}: violated condition kinds differ from {sorted(answer['kinds'])}")
        if stdout != expected_stdout:
            problems.append(f"{name}: output differs from the in-process analysis")
        if stderr:
            problems.append(f"{name}: unexpected stderr {stderr[:200]!r}")
        return problems
    except Exception as exc:
        return [f"{name}: check raised {type(exc).__name__}: {exc}"]


def check_cli_selftest(returncode: int, stdout: str, stderr: str) -> list[str]:
    """``selftest`` passes all three goldens and exits 0."""
    lines = stdout.splitlines()
    problems = []
    if returncode != 0:
        problems.append(f"selftest exit code {returncode}")
    if len(lines) != 3 or not all(line.startswith("PASS ") for line in lines):
        problems.append(f"selftest printed {lines!r}, expected three PASS lines")
    if stderr:
        problems.append(f"selftest stderr {stderr[:200]!r}")
    return problems

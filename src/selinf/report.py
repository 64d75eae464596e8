"""An analysis report as text, and its JSON rendering read back; ``analyze --json`` and ``selftest`` never load it."""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Union

from .errors import InvalidValue, ParseError, SelinfError
from .feasibility import FacetViolation, HiddenStateDistribution
from .io import REPORT_FORMAT, AnalysisReport, _reject_unknown, analyze, report_to_json_dict
from .model import TREATMENTS, ExperimentData, JointTable, LabelSet, echo, fraction_text, rational
from .selectivity import MarginalComparison, MsTestResult


def _fmt(p: int, q: int) -> str:
    """``str`` of the ``Fraction`` p/q, q > 0, then unless an integer ~ its ``float``, which int / int rounds as it."""
    text = fraction_text(p, q)
    return f"{text} (~{p / q:.4f})" if "/" in text else text


def _comparison_line(comp: MarginalComparison, labels: Optional[LabelSet]) -> str:
    other_first, other_second = (
        ("b", "b'") if comp.response == "A" else ("a", "a'")
    )
    line = (
        f"{comp.response} at {comp.fixed_level:2s}: "
        f"Pr(+1|{other_first}) = {_fmt(*comp.p_under_first.as_integer_ratio())}  vs  "
        f"Pr(+1|{other_second}) = {_fmt(*comp.p_under_second.as_integer_ratio())}  "
        f"delta = {_fmt(*comp.delta.as_integer_ratio())}"
    )
    if labels is not None:
        pair = labels.response_pair(comp.fixed_level)
        if pair is not None:
            line += f"   [+1 = {pair[0]}, -1 = {pair[1]}]"
    return line


def render_report_text(
    report: AnalysisReport,
    labels: Optional[LabelSet] = None,
    include_witness: bool = False,
) -> str:
    """Human-readable rendering of a full analysis."""
    lines = []
    chsh = report.chsh
    lcd = chsh.scaled_expectations[4]
    lines.append("CHSH")
    for t, e in zip(TREATMENTS, chsh.scaled_expectations):
        lines.append(f"  E[A*B | {t.key:5s}] = {_fmt(e, lcd)}")
    lines.append(
        f"  Gamma = {fraction_text(max(chsh.scaled_sums), lcd)} (= {chsh.gamma_decimal()} to 3 places)"
        f"   classification: {chsh.classification}"
    )
    lines.append(f"  attained by sign pattern(s): {', '.join(chsh.argmax_patterns)}")
    lines.append("")
    ms = report.marginals
    verdict = "satisfied" if ms.satisfied else "VIOLATED"
    lines.append(
        f"Marginal selectivity (tolerance {ms.tolerance}): {verdict}"
        f" (max delta {_fmt(*ms.max_delta.as_integer_ratio())})"
    )
    for comp in ms.comparisons:
        lines.append("  " + _comparison_line(comp, labels))
    lines.append("")
    if report.ms_tests is not None:
        alpha = report.ms_tests[0].alpha_sig
        lines.append(f"Significance (two-sided pooled z-test, alpha {alpha:g})")
        for r in report.ms_tests:
            flag = "reject" if r.reject else "retain"
            extra = " degenerate" if r.degenerate else ""
            lines.append(
                f"  {r.comparison.response} at {r.comparison.fixed_level:2s}: "
                f"z = {r.z_statistic:+.3f}  p = {r.p_value:.3g}  -> {flag}{extra}"
                f"  (n = {r.n_first}/{r.n_second})"
            )
        lines.append("")
    feas = report.feasibility
    if feas.feasible:
        lines.append("Hidden-state model: FEASIBLE (a witness distribution exists)")
        if include_witness and feas.witness is not None:
            lines.extend(witness_lines(feas.witness, "  ", "    "))
    else:
        lines.append("Hidden-state model: INFEASIBLE")
        lines.append(f"  certificate: {describe_certificate(feas.certificate)}")
        if len(feas.all_violations) > 1:
            lines.append("  all violated conditions:")
            for cert in feas.all_violations:
                lines.append(f"    - {describe_certificate(cert)}")
    return "\n".join(lines) + "\n"


def describe_certificate(cert: Union[MarginalComparison, FacetViolation]) -> str:
    if isinstance(cert, FacetViolation):
        return f"CHSH facet {cert.pattern} = {_fmt(*cert.value.as_integer_ratio())} > 2"
    return (
        f"marginal comparison {cert.response} at {cert.fixed_level}: "
        f"{_fmt(*cert.p_under_first.as_integer_ratio())} vs {_fmt(*cert.p_under_second.as_integer_ratio())}"
        f" (delta {_fmt(*cert.delta.as_integer_ratio())} > 0)"
    )


def witness_lines(witness: HiddenStateDistribution, header_prefix: str, indent: str) -> list[str]:
    """The witness header, then one ``state : weight`` line per state of nonzero weight."""
    return [f"{header_prefix}witness (state A(a)A(a')B(b)B(b') : weight):"] + [
        f"{indent}{state} : {w}" for state, w in witness.nonzero_texts()
    ]


def report_from_json_dict(doc: Mapping[str, Any]) -> AnalysisReport:
    """Rebuild a report from its machine rendering, accepting exactly the documents the program writes.

    A treatment's joint table is fixed by its E[A*B], Pr(A=+1) and Pr(B=+1),
    which the document's expectations and its comparisons at the treatment's
    alpha and beta levels give. So the four tables are rebuilt from them, and
    the report is ``analyze`` of them at the document's tolerance. When the
    document has tests, they are rebuilt from the first test's significance
    level and each treatment's sample size in the tests at a and a'. The
    document is accepted only if that report renders back to it as JSON, with
    the witness exactly when the document has one; otherwise a ``ParseError``
    names the first top-level key that differs. The report is returned with
    its witness either way. A document missing a part, or with a part of the
    wrong type or value, is a one-line ``ParseError``; a value that a record
    rejects stays the record's ``InvalidValue``.
    """
    try:
        if doc.get("format") != REPORT_FORMAT:
            raise ParseError(f"unsupported report format {echo(doc.get('format'))}")
        raw_ms, raw_tests = doc["marginal_selectivity"], doc["statistical_tests"]
        witness = doc["feasibility"]["witness"]
        plus = {c["fixed_level"]: (c["p_under_first"], c["p_under_second"]) for c in raw_ms["comparisons"]}
        tables = {}
        for t in TREATMENTS:  # Pr(A=+1) is compared at t's alpha level, Pr(B=+1) at its beta level
            pa, pb = rational(plus[t.alpha][t.beta == "b'"]), rational(plus[t.beta][t.alpha == "a'"])
            pp = (rational(doc["chsh"]["expectations"][t.key]) + 2 * pa + 2 * pb - 1) / 4
            try:
                tables[t] = JointTable(pp, pa - pp, pb - pp, 1 - pa - pb + pp)
            except InvalidValue as exc:
                raise InvalidValue(f"treatment {t.key}: the expectation and marginals give {exc}") from exc
        report = analyze(ExperimentData(tables), rational(raw_ms["tolerance"]))
        if raw_tests is not None:  # n of each treatment, in order, from the tests at a and a'
            alpha = raw_tests[0]["alpha_sig"]
            n = dict(zip(TREATMENTS, [raw_tests[i][key] for i in (0, 1) for key in ("n_first", "n_second")]))
            tests = tuple(MsTestResult(c, *(n[t] for t in c.treatments), alpha) for c in report.marginals.comparisons)
            report = AnalysisReport(report.chsh, report.marginals, tests, report.feasibility)
        rendered = report_to_json_dict(report, include_witness=witness is not None)
        _reject_unknown(doc, rendered.keys(), "malformed report: unknown keys")
        for key, part in rendered.items():  # as JSON text, so 1 is not true and 0 is not 0.0
            if json.dumps(doc[key], sort_keys=True) != json.dumps(part, sort_keys=True):
                raise ParseError(f"malformed report: {key} disagrees with the report's own inputs")
    except SelinfError:
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed report: {echo(exc)}") from exc
    return report

"""Experiment/model file handling and analysis-report assembly.

Experiment file format (JSON)
-----------------------------
::

    {
      "treatments": {
        "a,b":   {"pp": ".049", "pm": ".630", "mp": ".259", "mm": ".062"},
        "a,b'":  {"pp": 48, "pm": 2, "mp": 24, "mm": 7, "n": 81},
        "a',b":  {...},
        "a',b'": {...}
      },
      "labels": {                      # optional, all sub-blocks optional
        "factors":   {"alpha": "animal", "beta": "sound"},
        "levels":    {"a": "Horse or Bear?", ...},
        "responses": {"a": ["Horse", "Bear"], ...}
      },
      "renormalize": true,             # optional, default false
      "independent_counts": true       # optional, default false
    }

All four treatment blocks are required. A block holds either four
probability cells (strings such as ".049" or "49/1000"; bare JSON numbers
are accepted and read via their shortest decimal form) or four integer
count cells with an optional redundant total "n". A probability block may
additionally carry a nested ``"counts"`` object of that count form ("n"
appears only with counts); the two must agree unless
``independent_counts`` is set (for published rounded estimates shipped
alongside sample sizes). Probability cells must sum to exactly 1 unless
``renormalize`` is set, which accepts sums within +-0.01 and rescales.
Decimal exponents beyond +-1000, count tables of more than 2**53
observations, and 16 cells whose least common denominator exceeds 10**2000
(after renormalizing) are bad cells; ``analyze`` checks that cap on any data
too, and rejects a tolerance whose numerator or denominator exceeds 10**2000.
Every label name is a nonempty string.
``parse_experiment`` and ``parse_model`` read the document text.

On output, probabilities are written as exact fraction strings
("49/1000"), so parse(serialize(data)) == data.

Model file format (JSON)
------------------------
::

    {
      "hidden": {"++++": "1/2", "----": "1/2"},   # states by A(a)A(a')B(b)B(b')
      "eta": "0.1",                                # optional contamination rate
      "cross_map": {"a,b": "++", "a,b'": "+-", "a',b": "-+", "a',b'": "--"}
    }

Missing states weigh 0. ``cross_map`` (required when eta > 0) forces the
written outcome pair, A then B, when contamination strikes. The hidden
weights, and eta, are rejected when a numerator or their least common
denominator exceeds 10**2000.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from typing import AbstractSet, Any, Optional, Union

from .chsh import ChshReport, compute_gamma
from .errors import InvalidValue, ParseError, SelinfError
from .feasibility import FacetViolation, FeasibilityResult, HiddenStateDistribution, solve_feasibility
from .model import (
    MAX_COMMON_DENOMINATOR,
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
    LabelSet,
    Rational,
    Treatment,
    _Record,
    decode_signs,
    echo,
    exceeds_common_denominator_cap,
    printable,
    rational,
)
from .selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    check_marginal_selectivity,
    significance_level,
    test_marginal_selectivity,
)
from .simulate import Model

PROB_KEYS = ("pp", "pm", "mp", "mm")
_COUNT_BLOCK_KEYS = frozenset({*PROB_KEYS, "n"})
_PROB_BLOCK_KEYS = frozenset({*PROB_KEYS, "counts"})

RENORMALIZE_WINDOW = Fraction(1, 100)


def _load(text: str, what: str) -> Mapping[str, Any]:
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ParseError(f"{what} must be a JSON object")
    return document


def _reject_unknown(obj: Mapping[str, Any], allowed: AbstractSet[str], what: str) -> None:
    """Raise ``ParseError`` naming, after ``what``, the keys of ``obj`` outside the set ``allowed``."""
    if not obj.keys() <= allowed:
        raise ParseError(f"{what} {echo(sorted(obj.keys() - allowed))}")


def _check_cell_keys(block: Mapping[str, Any], key: str, allowed: AbstractSet[str]) -> None:
    """The four cells must be present, and no key outside ``allowed``."""
    _reject_unknown(block, allowed, f"treatment {key}: unknown keys")
    missing = [ck for ck in PROB_KEYS if ck not in block]
    if missing:
        raise ParseError(f"treatment {key}: missing cells {missing}")


def _parse_count_cells(block: Any, key: str) -> CountTable:
    """A count block, top-level or nested under "counts": four counts and an optional total "n"."""
    if not isinstance(block, Mapping):
        raise ParseError(f"treatment {key}: counts must be a JSON object")
    _check_cell_keys(block, key, _COUNT_BLOCK_KEYS)
    try:
        counts = CountTable(*(block[ck] for ck in PROB_KEYS))
    except InvalidValue as exc:
        raise ParseError(f"treatment {key}: {exc}") from exc
    n = block.get("n", counts.n)
    if type(n) is not int:  # JSON integers, not booleans
        raise ParseError(f"treatment {key}: n must be an integer")
    if n != counts.n:
        raise ParseError(f"treatment {key}: counts sum to {counts.n} but n = {n}")
    return counts


def _parse_prob_cells(block: Mapping[str, Any], key: str, renormalize: bool) -> JointTable:
    """Four probability cells, read and checked by ``JointTable``; the parser rereads them only if it rejects them."""
    values = [block[ck] for ck in PROB_KEYS]
    try:
        return JointTable(*values)  # it rejects every value json gives but a number or a string
    except InvalidValue:
        pass
    cells = []
    for ck, v in zip(PROB_KEYS, values):
        if type(v) not in (str, int, float):  # the types json gives, so not bool
            raise ParseError(f"treatment {key}: cell {ck} must be numeric, got {echo(v)}")
        try:
            cells.append(rational(v))
        except InvalidValue as exc:
            raise ParseError(f"treatment {key}: cell {ck}: {exc}") from exc
    for ck, f in zip(PROB_KEYS, cells):
        if f < 0 or f > 1:
            raise ParseError(f"treatment {key}: cell {ck} = {echo(block[ck])} outside [0, 1]")
    total = sum(cells)  # at most 4, so float(total) cannot overflow
    if renormalize and abs(total - 1) <= RENORMALIZE_WINDOW:
        return JointTable(*(c / total for c in cells))  # each c <= total, so still in [0, 1]
    why = ", beyond the +-0.01 renormalization window" if renormalize else '; set "renormalize" to accept near-1 sums'
    raise ParseError(f"treatment {key}: cells sum to {printable(total)} (~{float(total):.4f}){why}")


def _parse_block(
    block: Any, key: str, renormalize: bool
) -> tuple[JointTable, Optional[CountTable]]:
    if not isinstance(block, Mapping):
        raise ParseError(f"treatment {key}: block must be a JSON object")
    is_count = [type(block.get(ck)) is int for ck in PROB_KEYS]  # JSON integers, not booleans
    if all(is_count):
        counts = _parse_count_cells(block, key)
        return counts.normalized(), counts
    _check_cell_keys(block, key, _PROB_BLOCK_KEYS)
    if any(is_count):
        raise ParseError(
            f"treatment {key}: mix of integer (count) and fractional (probability) cells"
        )
    table = _parse_prob_cells(block, key, renormalize)
    return table, _parse_count_cells(block["counts"], key) if "counts" in block else None


def _parse_labels(raw: Any) -> LabelSet:
    if not isinstance(raw, Mapping):
        raise ParseError("labels must be a JSON object")
    _reject_unknown(raw, {"factors", "levels", "responses"}, "unknown label sections")
    for section in ("factors", "levels", "responses"):
        if section in raw and not isinstance(raw[section], Mapping):
            raise ParseError(f"labels.{section} must be a JSON object")
    try:
        return LabelSet(**raw)
    except InvalidValue as exc:
        raise ParseError(f"bad labels: {exc}") from exc


def _check_common_denominator(data: ExperimentData) -> ExperimentData:
    if max(data.scaled_cells) > MAX_COMMON_DENOMINATOR:  # L, which bounds every numerator, each cell being at most 1
        raise InvalidValue("treatments: the cells' least common denominator exceeds 10**2000")
    return data


def parse_experiment(text: str) -> ExperimentData:
    """Parse the text of an experiment file into exact-rational data."""
    doc = _load(text, "experiment document")
    _reject_unknown(doc, {"treatments", "labels", "renormalize", "independent_counts"}, "unknown top-level keys")
    if "treatments" not in doc or not isinstance(doc["treatments"], Mapping):
        raise ParseError('document needs a "treatments" object')
    for key in ("renormalize", "independent_counts"):
        if not isinstance(doc.get(key, False), bool):
            raise ParseError(f'"{key}" must be JSON true or false')
    renormalize = doc.get("renormalize", False)
    independent = doc.get("independent_counts", False)
    blocks = doc["treatments"]
    _reject_unknown(blocks, {t.key for t in TREATMENTS}, "unknown treatment keys")
    tables = {}
    counts = {}
    for t in TREATMENTS:
        if t.key not in blocks:
            raise ParseError(f"treatment block {t.key!r} is missing")
        tables[t], count = _parse_block(blocks[t.key], t.key, renormalize)
        if count is not None:
            counts[t] = count
    labels = _parse_labels(doc["labels"]) if "labels" in doc else None
    try:
        data = ExperimentData(
            tables=tables,
            counts=counts or None,
            labels=labels,
            independent_counts=independent,
        )
        return _check_common_denominator(data)
    except InvalidValue as exc:
        raise ParseError(str(exc)) from exc


def serialize_experiment(data: ExperimentData) -> str:
    """Write data back to the file format, probabilities as exact fractions."""
    treatments: dict[str, Any] = {}
    for t in TREATMENTS:
        block: dict[str, Any] = {
            ck: str(cell) for ck, cell in zip(PROB_KEYS, data.table(t).cells())
        }
        ct = data.count(t)
        if ct is not None:
            block["counts"] = dict(zip(PROB_KEYS, ct.cells()))
        treatments[t.key] = block
    doc: dict[str, Any] = {"treatments": treatments}
    if data.labels is not None:  # json writes each response pair as a list
        labels = data.labels
        sections = {"factors": labels.factors, "levels": labels.levels, "responses": labels.responses}
        doc["labels"] = {name: names for name, names in sections.items() if names is not None}
    if data.independent_counts:
        doc["independent_counts"] = True
    return json.dumps(doc, indent=2)


def parse_model(text: str) -> Model:
    """Parse the text of a model file into a ``Model``; one with no ``cross_map``
    has eta = 0 and is the selective model."""
    doc = _load(text, "model document")
    _reject_unknown(doc, {"hidden", "eta", "cross_map"}, "unknown top-level keys")
    if "hidden" not in doc or not isinstance(doc["hidden"], Mapping):
        raise ParseError('model needs a "hidden" object of state weights')
    try:
        weights = {state: rational(w) for state, w in doc["hidden"].items()}
        if exceeds_common_denominator_cap(weights.values()):  # the documented input cap, as for eta
            raise ParseError("hidden: a numerator or the least common denominator exceeds 10**2000")
        hidden = HiddenStateDistribution.from_mapping(weights)
    except InvalidValue as exc:
        raise ParseError(f"bad hidden-state weights: {exc}") from exc
    try:
        eta = rational(doc.get("eta", 0))
    except InvalidValue as exc:
        raise ParseError(f"bad eta: {exc}") from exc
    if exceeds_common_denominator_cap([eta]):  # the range error, checked by Model, prints eta
        raise ParseError("eta: numerator or denominator exceeds 10**2000")
    cross = doc.get("cross_map")
    if "cross_map" in doc and not isinstance(cross, Mapping):  # null is not a missing map
        raise ParseError("cross_map must be a JSON object")
    try:
        if cross is not None:
            cross = {
                Treatment.from_key(key): decode_signs(pair, 2, f"cross_map[{key!r}]")
                for key, pair in cross.items()
            }
        return Model(hidden=hidden, eta=eta, cross_map=cross)
    except InvalidValue as exc:
        raise ParseError(str(exc)) from exc


class AnalysisReport(_Record):
    """Everything one analysis produces: CHSH, marginals, tests, feasibility.

    ``ms_tests`` is None or one test per marginal comparison, in their order, sharing alpha_sig and each n.
    """

    __slots__ = _fields = ("chsh", "marginals", "ms_tests", "feasibility")

    def __init__(
        self, chsh: ChshReport, marginals: MarginalReport, ms_tests: Optional[tuple[MsTestResult, ...]],
        feasibility: FeasibilityResult,
    ) -> None:
        object.__setattr__(self, "chsh", chsh)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "ms_tests", ms_tests)
        object.__setattr__(self, "feasibility", feasibility)
        if ms_tests is not None and tuple(r.comparison for r in ms_tests) != marginals.comparisons:
            raise InvalidValue("ms_tests must hold one test per marginal comparison, in their order")
        shared: dict[str, object] = {}  # alpha_sig, and n(t) of each treatment t, which two tests hold
        for r in ms_tests or ():
            first, second = [f"n({t.key})" for t in r.comparison.treatments]
            for key, value in (("alpha_sig", r.alpha_sig), (first, r.n_first), (second, r.n_second)):
                if shared.setdefault(key, value) != value:
                    raise InvalidValue(f"ms_tests disagree on {key}: {echo(shared[key])} and {echo(value)}")


def analyze(
    data: ExperimentData,
    tolerance: Rational = 0,
    alpha_sig: float = 0.05,
    bonferroni: bool = False,
) -> AnalysisReport:
    """Run the full pipeline on one experiment.

    Significance tests run exactly when counts are present for all four
    treatments; ``alpha_sig`` and the cells' 10**2000 cap are checked either way.
    """
    _check_common_denominator(data)
    chsh = compute_gamma(data)
    marginals = check_marginal_selectivity(data, tolerance)
    significance_level(alpha_sig)
    ms_tests = None
    if data.has_full_counts():
        ms_tests = tuple(test_marginal_selectivity(data, marginals, alpha_sig, bonferroni))
    return AnalysisReport(
        chsh=chsh,
        marginals=marginals,
        ms_tests=ms_tests,
        feasibility=solve_feasibility(data, chsh, marginals),
    )


REPORT_FORMAT = "selinf-analysis/1"


def _comparison_to_dict(comp: MarginalComparison) -> dict[str, Any]:
    return {
        "response": comp.response,
        "fixed_level": comp.fixed_level,
        "p_under_first": str(comp.p_under_first),
        "p_under_second": str(comp.p_under_second),
        "delta": str(comp.delta),
    }


def _certificate_to_dict(cert: Union[MarginalComparison, FacetViolation]) -> dict[str, Any]:
    if isinstance(cert, FacetViolation):
        return {
            "kind": "chsh_facet",
            "pattern": cert.pattern,
            "value": str(cert.value),
        }
    return {"kind": "marginal", **_comparison_to_dict(cert)}


def witness_lines(witness: HiddenStateDistribution, header_prefix: str, indent: str) -> list[str]:
    """The witness header, then one ``state : weight`` line per state of nonzero weight."""
    return [f"{header_prefix}witness (state A(a)A(a')B(b)B(b') : weight):"] + [
        f"{indent}{state} : {w}" for state, w in witness.nonzero_items()
    ]


def report_to_json_dict(report: AnalysisReport, include_witness: bool = False) -> dict[str, Any]:
    """Machine rendering; every rational is an exact fraction string."""
    chsh = report.chsh
    out: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "chsh": {
            "expectations": {t.key: str(chsh.expectations[t]) for t in TREATMENTS},
            "sums": {p: str(v) for p, v in chsh.sums.items()},
            "gamma": str(chsh.gamma),
            "gamma_decimal": chsh.gamma_decimal(),
            "argmax_patterns": list(chsh.argmax_patterns),
            "classification": chsh.classification,
        },
        "marginal_selectivity": {
            "tolerance": str(report.marginals.tolerance),
            "satisfied": report.marginals.satisfied,
            "max_delta": str(report.marginals.max_delta),
            "comparisons": [
                _comparison_to_dict(c) for c in report.marginals.comparisons
            ],
        },
        "statistical_tests": None,
        "feasibility": {
            "verdict": "feasible" if report.feasibility.feasible else "infeasible",
            "witness": None,
            "certificate": None,
            "all_violations": [
                _certificate_to_dict(c) for c in report.feasibility.all_violations
            ],
        },
    }
    if report.ms_tests is not None:
        out["statistical_tests"] = [
            {
                "comparison": _comparison_to_dict(r.comparison),
                "n_first": r.n_first,
                "n_second": r.n_second,
                "z": r.z_statistic,
                "p_value": r.p_value,
                "reject": r.reject,
                "alpha_sig": r.alpha_sig,
                "degenerate": r.degenerate,
            }
            for r in report.ms_tests
        ]
    if include_witness and report.feasibility.witness is not None:
        out["feasibility"]["witness"] = {state: str(w) for state, w in report.feasibility.witness.nonzero_items()}
    if report.feasibility.certificate is not None:
        out["feasibility"]["certificate"] = _certificate_to_dict(
            report.feasibility.certificate
        )
    return out


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


def _fmt(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x} (~{float(x):.4f})"


def _comparison_line(comp: MarginalComparison, labels: Optional[LabelSet]) -> str:
    other_first, other_second = (
        ("b", "b'") if comp.response == "A" else ("a", "a'")
    )
    line = (
        f"{comp.response} at {comp.fixed_level:2s}: "
        f"Pr(+1|{other_first}) = {_fmt(comp.p_under_first)}  vs  "
        f"Pr(+1|{other_second}) = {_fmt(comp.p_under_second)}  "
        f"delta = {_fmt(comp.delta)}"
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
    lines.append("CHSH")
    for t in TREATMENTS:
        lines.append(f"  E[A*B | {t.key:5s}] = {_fmt(chsh.expectations[t])}")
    lines.append(
        f"  Gamma = {chsh.gamma} (= {chsh.gamma_decimal()} to 3 places)"
        f"   classification: {chsh.classification}"
    )
    lines.append(f"  attained by sign pattern(s): {', '.join(chsh.argmax_patterns)}")
    lines.append("")
    ms = report.marginals
    verdict = "satisfied" if ms.satisfied else "VIOLATED"
    lines.append(
        f"Marginal selectivity (tolerance {ms.tolerance}): {verdict}"
        f" (max delta {_fmt(ms.max_delta)})"
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
        return f"CHSH facet {cert.pattern} = {_fmt(cert.value)} > 2"
    return (
        f"marginal comparison {cert.response} at {cert.fixed_level}: "
        f"{_fmt(cert.p_under_first)} vs {_fmt(cert.p_under_second)}"
        f" (delta {_fmt(cert.delta)} > 0)"
    )

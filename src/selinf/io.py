"""Experiment file handling, the analysis pipeline and its JSON report.

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
The parser reads each cell once, checks it on integers, and passes each
block's integers to ``ExperimentData._hold``, which sets the experiment.
Decimal exponents beyond +-1000, count tables of more than 2**53
observations, and 16 cells whose least common denominator exceeds 10**2000
(after renormalizing) are bad cells; ``analyze`` checks that cap on any data
too, and rejects a tolerance whose numerator or denominator exceeds 10**2000.
Every label name is a nonempty string.
``parse_experiment`` reads the document text; ``simulate`` documents the model file.

On output, probabilities are written as exact fraction strings
("49/1000"), so parse(serialize(data)) == data. ``_json`` writes every JSON
document the program prints, experiments and reports, as ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import importlib
import json
import math
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import AbstractSet, Any, Optional, Union

from .chsh import SIGN_PATTERNS, ChshReport, compute_gamma
from .errors import InvalidValue, ParseError
from .feasibility import FacetViolation, FeasibilityResult, solve_feasibility
from .model import (
    MAX_COMMON_DENOMINATOR,
    TREATMENTS,
    CountTable,
    ExperimentData,
    LabelSet,
    Rational,
    _Record,
    echo,
    fraction_text,
    integer_ratio,
    printable,
)
from .selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    check_marginal_selectivity,
    significance_level,
    test_marginal_selectivity,
)

PROB_KEYS = ("pp", "pm", "mp", "mm")
_COUNT_BLOCK_KEYS = frozenset({*PROB_KEYS, "n"})
_PROB_BLOCK_KEYS = frozenset({*PROB_KEYS, "counts"})


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


def _parse_prob_cells(block: Mapping[str, Any], key: str, renormalize: bool) -> tuple[int, ...]:
    """Four probability cells, each read once, as integers over their least common denominator L, then L (or S,
    their sum, if renormalized)."""
    ratios = []
    for ck in PROB_KEYS:
        if type(block[ck]) not in (str, int, float):  # the types json gives, so not bool
            raise ParseError(f"treatment {key}: cell {ck} must be numeric, got {echo(block[ck])}")
        try:
            ratios.append(integer_ratio(block[ck]))
        except InvalidValue as exc:
            raise ParseError(f"treatment {key}: cell {ck}: {exc}") from exc
    for ck, (p, q) in zip(PROB_KEYS, ratios):
        if not 0 <= p <= q:
            raise ParseError(f"treatment {key}: cell {ck} = {echo(block[ck])} outside [0, 1]")
    lcd = math.lcm(*[q for _, q in ratios])
    cells = [p * (lcd // q) for p, q in ratios]
    total = sum(cells)  # at most 4 L, so total / L cannot overflow
    if total == lcd or renormalize and abs(total - lcd) * 100 <= lcd:
        return (*cells, total)  # each cell at most S, so still in [0, 1]
    why = ", beyond the +-0.01 renormalization window" if renormalize else '; set "renormalize" to accept near-1 sums'
    raise ParseError(f"treatment {key}: cells sum to {printable(Fraction(total, lcd))} (~{total / lcd:.4f}){why}")


def _parse_block(
    block: Any, key: str, renormalize: bool
) -> tuple[tuple[int, ...], Optional[CountTable]]:
    if not isinstance(block, Mapping):
        raise ParseError(f"treatment {key}: block must be a JSON object")
    is_count = [type(block.get(ck)) is int for ck in PROB_KEYS]  # JSON integers, not booleans
    if all(is_count):
        counts = _parse_count_cells(block, key)
        return (*counts.cells(), counts.n), counts
    _check_cell_keys(block, key, _PROB_BLOCK_KEYS)
    if any(is_count):
        raise ParseError(
            f"treatment {key}: mix of integer (count) and fractional (probability) cells"
        )
    cells = _parse_prob_cells(block, key, renormalize)
    return cells, _parse_count_cells(block["counts"], key) if "counts" in block else None


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
    held = []
    counts = {}
    for t in TREATMENTS:
        if t.key not in blocks:
            raise ParseError(f"treatment block {t.key!r} is missing")
        cells, count = _parse_block(blocks[t.key], t.key, renormalize)
        held.append(cells)
        if count is not None:
            counts[t] = count
    labels = _parse_labels(doc["labels"]) if "labels" in doc else None
    try:
        data = ExperimentData.__new__(ExperimentData)._hold(held, counts or None, labels, independent)
        return _check_common_denominator(data)
    except InvalidValue as exc:
        raise ParseError(str(exc)) from exc


def _json(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, the text of every JSON document the program prints.

    It lays out dicts, lists and tuples itself, where ``json.dumps`` would run its
    pure-Python indenting encoder; it writes strings, ints, ``None``, booleans and
    finite floats as that encoder does and passes every other scalar to
    ``json.dumps``. Keys are strings."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if not isinstance(value, (dict, list, tuple)) or not value:  # an empty container is {} or []
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + newline + "]"


def serialize_experiment(data: ExperimentData) -> str:
    """Write data back to the file format, probabilities as exact fractions."""
    treatments: dict[str, Any] = {}
    cells = data.scaled_cells
    for t in TREATMENTS:
        block: dict[str, Any] = {ck: fraction_text(p, cells[16]) for ck, p in zip(PROB_KEYS, cells[4 * t.index :])}
        ct = data.count(t)
        if ct is not None:
            block["counts"] = dict(zip(PROB_KEYS, ct.cells()))
        treatments[t.key] = block
    doc: dict[str, Any] = {"treatments": treatments}
    if data.labels is not None:  # each response pair is written as a list
        labels = data.labels
        sections = {"factors": labels.factors, "levels": labels.levels, "responses": labels.responses}
        doc["labels"] = {name: names for name, names in sections.items() if names is not None}
    if data.independent_counts:
        doc["independent_counts"] = True
    return _json(doc)


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
    a1, a2, lcd = comp.scaled_marginals
    return {
        "response": comp.response,
        "fixed_level": comp.fixed_level,
        "p_under_first": fraction_text(a1, lcd),
        "p_under_second": fraction_text(a2, lcd),
        "delta": fraction_text(abs(a1 - a2), lcd),
    }


def _certificate_to_dict(cert: Union[MarginalComparison, FacetViolation]) -> dict[str, Any]:
    if isinstance(cert, FacetViolation):
        return {"kind": "chsh_facet", "pattern": cert.pattern, "value": fraction_text(*cert.scaled_value)}
    return {"kind": "marginal", **_comparison_to_dict(cert)}


def report_to_json_dict(report: AnalysisReport, include_witness: bool = False) -> dict[str, Any]:
    """Machine rendering; every rational is an exact fraction string."""
    chsh, feas = report.chsh, report.feasibility
    lcd = chsh.scaled_expectations[4]
    return {
        "format": REPORT_FORMAT,
        "chsh": {
            "expectations": {t.key: fraction_text(e, lcd) for t, e in zip(TREATMENTS, chsh.scaled_expectations)},
            "sums": {p: fraction_text(v, lcd) for p, v in zip(SIGN_PATTERNS, chsh.scaled_sums)},
            "gamma": fraction_text(max(chsh.scaled_sums), lcd),
            "gamma_decimal": chsh.gamma_decimal(),
            "argmax_patterns": list(chsh.argmax_patterns),
            "classification": chsh.classification,
        },
        "marginal_selectivity": {
            "tolerance": fraction_text(*report.marginals.scaled_tolerance),
            "satisfied": report.marginals.satisfied,
            "max_delta": fraction_text(*report.marginals.scaled_max_delta),
            "comparisons": [_comparison_to_dict(c) for c in report.marginals.comparisons],
        },
        "statistical_tests": None if report.ms_tests is None else [
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
        ],
        "feasibility": {
            "verdict": "feasible" if feas.feasible else "infeasible",
            "witness": dict(feas.witness.nonzero_texts()) if include_witness and feas.witness is not None else None,
            "certificate": None if feas.certificate is None else _certificate_to_dict(feas.certificate),
            "all_violations": [_certificate_to_dict(c) for c in feas.all_violations],
        },
    }


_LAZY = {"parse_model": "simulate"} | dict.fromkeys(  # names only some commands use: each loads its module when read
    ("describe_certificate", "render_report_text", "report_from_json_dict", "witness_lines"), "report"
)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Selective-influence analysis for 2x2 factorial experiments with binary responses.

Given the four joint distributions of two +1/-1 responses under two binary
factors, this package computes the CHSH statistic over all eight odd-plus
sign patterns, checks marginal selectivity exactly and statistically, and
decides by exact linear feasibility whether a distribution over the 16
deterministic hidden states reproduces the data, emitting a witness or a
certificate of impossibility. All probability arithmetic is exact rational.
"""

import importlib

from .chsh import (
    SIGN_PATTERNS,
    ChshReport,
    compute_gamma,
)
from .errors import InvalidValue, ParseError, SelinfError
from .feasibility import (
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
from .io import (
    AnalysisReport,
    analyze,
    parse_experiment,
    report_to_json_dict,
    serialize_experiment,
)
from .model import (
    CELLS,
    LEVELS,
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
    LabelSet,
    Treatment,
    rational,
)
from .selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    check_marginal_selectivity,
    test_marginal_selectivity,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(("Model", "SampleSpec", "SplitMix64", "parse_model", "sample_counts"), "simulate")
_LAZY |= dict.fromkeys(("render_report_text", "report_from_json_dict"), "report")

__all__ = [
    "AnalysisReport",
    "CELLS",
    "ChshReport",
    "CountTable",
    "ExperimentData",
    "FacetViolation",
    "FeasibilityResult",
    "HIDDEN_STATES",
    "HiddenStateDistribution",
    "InvalidValue",
    "JointTable",
    "LEVELS",
    "LabelSet",
    "MarginalComparison",
    "MarginalReport",
    "Model",
    "MsTestResult",
    "ParseError",
    "SIGN_PATTERNS",
    "SampleSpec",
    "SelinfError",
    "SplitMix64",
    "TREATMENTS",
    "Treatment",
    "analyze",
    "check_marginal_selectivity",
    "compute_gamma",
    "fine_criterion",
    "fine_violations",
    "parse_experiment",
    "parse_model",
    "predicted_tables",
    "rational",
    "render_report_text",
    "report_from_json_dict",
    "report_to_json_dict",
    "sample_counts",
    "serialize_experiment",
    "solve_feasibility",
    "test_marginal_selectivity",
    "verify_witness",
]


def __getattr__(name: str):  # a name in _LAZY loads its module when first read: a process compiles only what it runs
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

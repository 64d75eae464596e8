"""Selective-influence analysis for 2x2 factorial experiments with binary responses.

Given the four joint distributions of two +1/-1 responses under two binary
factors, this package computes the CHSH statistic over all eight odd-plus
sign patterns, checks marginal selectivity exactly and statistically, and
decides by exact linear feasibility whether a distribution over the 16
deterministic hidden states reproduces the data, emitting a witness or a
certificate of impossibility. All probability arithmetic is exact rational.
"""

from .chsh import (
    SIGN_PATTERNS,
    BoundClassification,
    ChshReport,
    SignPattern,
    compute_gamma,
)
from .errors import (
    BadCell,
    ConflictingData,
    InvalidDistribution,
    InvalidPattern,
    InvalidTable,
    InvalidValue,
    MissingCounts,
    MissingTreatment,
    ParseError,
    SelinfError,
    SumNotOne,
    ZeroTotal,
)
from .feasibility import (
    HIDDEN_STATES,
    FacetViolation,
    FeasibilityResult,
    GeneralRepresentation,
    HiddenStateDistribution,
    Verdict,
    construct_general_representation,
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
    parse_model,
    render_report_text,
    report_from_json_dict,
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
from .simulate import (
    Model,
    SampleSpec,
    SplitMix64,
    sample_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BadCell",
    "BoundClassification",
    "CELLS",
    "ChshReport",
    "ConflictingData",
    "CountTable",
    "ExperimentData",
    "FacetViolation",
    "FeasibilityResult",
    "GeneralRepresentation",
    "HIDDEN_STATES",
    "HiddenStateDistribution",
    "InvalidDistribution",
    "InvalidPattern",
    "InvalidTable",
    "InvalidValue",
    "JointTable",
    "LEVELS",
    "LabelSet",
    "MarginalComparison",
    "MarginalReport",
    "MissingCounts",
    "MissingTreatment",
    "Model",
    "MsTestResult",
    "ParseError",
    "SIGN_PATTERNS",
    "SampleSpec",
    "SelinfError",
    "SignPattern",
    "SplitMix64",
    "SumNotOne",
    "TREATMENTS",
    "Treatment",
    "Verdict",
    "ZeroTotal",
    "analyze",
    "check_marginal_selectivity",
    "compute_gamma",
    "construct_general_representation",
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

"""The package's records: frozen and slotted, and compared, hashed and shown as frozen dataclasses were.

Each record has a hand-written ``__init__``; the shared base gives the frozen
``__setattr__``/``__delattr__`` and an ``__eq__``, ``__hash__`` and
``__repr__`` over the fields that ``__init__`` takes, in order. Attributes
derived once (``key``, ``index``, ``scaled_cells``, ``delta``,
``max_delta``) stay out of all three.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from selinf.chsh import SIGN_PATTERNS, ChshReport, SignPattern, compute_gamma
from selinf.feasibility import (
    FacetViolation,
    FeasibilityResult,
    GeneralRepresentation,
    HiddenStateDistribution,
    construct_general_representation,
    predicted_tables,
)
from selinf.io import AnalysisReport, analyze
from selinf.model import (
    ALPHA_A,
    BETA_B_PRIME,
    TREATMENTS,
    CountTable,
    ExperimentData,
    Factor,
    FactorLevel,
    JointTable,
    LabelSet,
    Level,
    Treatment,
)
from selinf.selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    Response,
    check_marginal_selectivity,
)
from selinf.simplex import ReducedSystem
from selinf.simulate import Model, SampleSpec, sample_counts


def hidden():
    return HiddenStateDistribution.from_mapping({"++++": "1/2", "-+-+": "1/2"})


def sampled():
    """Four counted tables: a,b all --, a,b' all -+, a',b half ++ and half +-, a',b' all ++."""
    return sample_counts(Model(hidden()), SampleSpec(4, 7))


# One factory per record class; each call builds a new instance equal to the last.
SAMPLES = {
    FactorLevel: lambda: FactorLevel(Factor.ALPHA, Level.FIRST),
    Treatment: lambda: Treatment(ALPHA_A, BETA_B_PRIME),
    CountTable: lambda: CountTable(1, 0, 2, 3),
    JointTable: lambda: JointTable("1/2", 0, ".25", Fraction(1, 4)),
    LabelSet: lambda: LabelSet(factors={"alpha": "x"}, responses={"a": ["H", "B"]}),
    ExperimentData: sampled,
    SignPattern: lambda: SignPattern((1, 1, 1, -1)),
    ChshReport: lambda: compute_gamma(sampled()),
    MarginalComparison: lambda: MarginalComparison(Response.A, ALPHA_A, Fraction(1, 2), Fraction(1, 3)),
    MarginalReport: lambda: check_marginal_selectivity(sampled()),
    MsTestResult: lambda: analyze(sampled()).ms_tests[2],
    HiddenStateDistribution: hidden,
    GeneralRepresentation: lambda: construct_general_representation(
        predicted_tables(HiddenStateDistribution.from_mapping({"+-+-": 1}))
    ),
    FacetViolation: lambda: FacetViolation(SIGN_PATTERNS[0], Fraction(5, 2)),
    FeasibilityResult: lambda: analyze(sampled()).feasibility,
    ReducedSystem: lambda: ReducedSystem(rows=((1, 0, -1),), pivots=(0,), transform=(((0, 1), (2, -1)),)),
    Model: lambda: Model(hidden(), "1/10", {t: (1, -1) for t in TREATMENTS}),
    SampleSpec: lambda: SampleSpec(4, 7),
    AnalysisReport: lambda: analyze(sampled()),
}

# Records with a dict among their fields cannot be hashed, as under the dataclasses.
UNHASHABLE = {LabelSet, ExperimentData, ChshReport, GeneralRepresentation, Model, AnalysisReport}

ALPHA = "FactorLevel(factor=<Factor.ALPHA: 'alpha'>, level=<Level.FIRST: 'first'>)"
BETA_PRIME = "FactorLevel(factor=<Factor.BETA: 'beta'>, level=<Level.SECOND: 'second'>)"
COMPARISON = (
    f"MarginalComparison(response=<Response.A: 'A'>, fixed_level={ALPHA},"
    " p_under_first=Fraction(1, 2), p_under_second=Fraction(1, 3))"
)

# The repr each sample had as a dataclass. A record built from other records is
# checked here by its own fields and their order; those records have their own line.
REPRS = {
    FactorLevel: ALPHA,
    Treatment: f"Treatment(alpha={ALPHA}, beta={BETA_PRIME})",
    CountTable: "CountTable(n_pp=1, n_pm=0, n_mp=2, n_mm=3)",
    JointTable: "JointTable(p_pp=Fraction(1, 2), p_pm=Fraction(0, 1), p_mp=Fraction(1, 4), p_mm=Fraction(1, 4))",
    LabelSet: "LabelSet(factors={'alpha': 'x'}, levels=None, responses={'a': ('H', 'B')})",
    ExperimentData: lambda r: (
        f"ExperimentData(tables={r.tables!r}, counts={r.counts!r}, labels=None, independent_counts=False)"
    ),
    SignPattern: "SignPattern(signs=(1, 1, 1, -1))",
    ChshReport: lambda r: (
        f"ChshReport(expectations={r.expectations!r}, sums={r.sums!r}, gamma=Fraction(3, 1),"
        " argmax_patterns=frozenset({SignPattern(signs=(1, -1, 1, 1))}),"
        " classification=<BoundClassification.SUPRA_QUANTUM: 'supra-quantum'>)"
    ),
    MarginalComparison: COMPARISON,
    MarginalReport: lambda r: f"MarginalReport(comparisons={r.comparisons!r}, tolerance=Fraction(0, 1))",
    MsTestResult: lambda r: (
        f"MsTestResult(comparison={r.comparison!r}, n_first=4, n_second=4, z_statistic=-1.6329931618554523,"
        " p_value=0.10247043485974938, reject=False, alpha_sig=0.05, degenerate=False)"
    ),
    HiddenStateDistribution: "HiddenStateDistribution(weights=(Fraction(1, 2), "
    + "Fraction(0, 1), " * 9
    + "Fraction(1, 2), "
    + ", ".join(["Fraction(0, 1)"] * 5)
    + "))",
    GeneralRepresentation: "GeneralRepresentation(weights={((1, 1), (1, -1), (-1, 1), (-1, -1)): Fraction(1, 1)})",
    FacetViolation: "FacetViolation(pattern=SignPattern(signs=(1, 1, 1, -1)), value=Fraction(5, 2))",
    FeasibilityResult: lambda r: (
        f"FeasibilityResult(verdict=<Verdict.INFEASIBLE: 'infeasible'>, witness=None,"
        f" certificate={r.certificate!r}, all_violations={r.all_violations!r})"
    ),
    ReducedSystem: "ReducedSystem(rows=((1, 0, -1),), pivots=(0,), transform=(((0, 1), (2, -1)),))",
    Model: lambda r: f"Model(hidden={r.hidden!r}, eta=Fraction(1, 10), cross_map={r.cross_map!r})",
    SampleSpec: "SampleSpec(n_per_treatment=4, seed=7)",
    AnalysisReport: lambda r: (
        f"AnalysisReport(chsh={r.chsh!r}, marginals={r.marginals!r}, ms_tests={r.ms_tests!r},"
        f" feasibility={r.feasibility!r})"
    ),
}

records = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def test_every_record_class_is_sampled():
    assert len(SAMPLES) == len(REPRS) == 19 and set(SAMPLES) == set(REPRS)


@records
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = SAMPLES[cls]()
    assert type(record) is cls
    for name in [*inspect.signature(cls).parameters, "key", "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert SAMPLES[cls]() == record


@records
def test_only_model_keeps_an_instance_dict(cls):
    # Model's cached_property stores the tables in the instance dict
    assert hasattr(SAMPLES[cls](), "__dict__") == (cls is Model)


@records
def test_equal_records_hash_equal_and_other_types_are_not_implemented(cls):
    first, second = SAMPLES[cls](), SAMPLES[cls]()
    assert first == second and first is not second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    assert first.__eq__(object()) is NotImplemented
    assert first.__eq__(repr(first)) is NotImplemented
    assert first != repr(first)


@records
def test_copies_and_pickles_are_equal_records(cls):
    record = SAMPLES[cls]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)


@records
def test_repr_is_the_dataclass_repr(cls):
    record = SAMPLES[cls]()
    expected = REPRS[cls]
    assert repr(record) == (expected(record) if callable(expected) else expected)


def test_fields_from_init_and_derived_attributes():
    # every field is an __init__ parameter, with the same name, order and default as before
    def defaults(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert defaults(ExperimentData) == [
        ("tables", empty), ("counts", None), ("labels", None), ("independent_counts", False)
    ]
    assert defaults(FeasibilityResult) == [
        ("verdict", empty), ("witness", None), ("certificate", None), ("all_violations", ())
    ]
    assert defaults(Model) == [("hidden", empty), ("eta", Fraction(0)), ("cross_map", None)]
    # max_delta is computed once, like each comparison's delta, and shown or compared by neither
    report = check_marginal_selectivity(sampled())
    assert report.max_delta == max(c.delta for c in report.comparisons) == Fraction(1, 2)
    assert "max_delta" not in repr(report) and "delta" not in repr(report.comparisons[0])
    again = MarginalReport(report.comparisons, report.tolerance)
    assert again == report and again.max_delta == report.max_delta

"""The package's records: frozen and slotted, and compared, hashed and shown as frozen dataclasses were.

Each record has a hand-written ``__init__``; the shared base gives the frozen
``__setattr__``/``__delattr__`` and an ``__eq__``, ``__hash__`` and
``__repr__`` over the fields that ``__init__`` takes, in order. A joint
table, a CHSH report and a distribution store their fields as integers in one
slot each (``scaled_cells``, ``scaled_expectations``, ``scaled_weights``) and
read each field from it. Attributes derived once (``key``, ``index``, a data
set's ``scaled_cells``, ``response``, ``delta``, ``max_delta``, a CHSH
report's ``scaled_sums``, ``argmax_patterns`` and ``classification``, a
z-test's ``z_statistic``, ``p_value``, ``reject`` and ``degenerate``, a
model's ``tables`` and thresholds, and a feasibility result's ``feasible`` and
``certificate``) stay out of all three.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import selinf

from selinf.chsh import SIGN_PATTERNS, ChshReport, compute_gamma
from selinf.feasibility import FacetViolation, FeasibilityResult, HiddenStateDistribution
from selinf.io import AnalysisReport, analyze
from selinf.model import (
    TREATMENTS,
    CountTable,
    ExperimentData,
    JointTable,
    LabelSet,
    Treatment,
    _Record,
)
from selinf.selectivity import (
    MarginalComparison,
    MarginalReport,
    MsTestResult,
    check_marginal_selectivity,
)
from selinf.simulate import Model, SampleSpec, sample_counts


def hidden():
    return HiddenStateDistribution.from_mapping({"++++": "1/2", "-+-+": "1/2"})


def sampled():
    """Four counted tables: a,b all --, a,b' all -+, a',b half ++ and half +-, a',b' all ++."""
    return sample_counts(Model(hidden()), SampleSpec(4, 7))


# One factory per record class; each call builds a new instance equal to the last.
SAMPLES = {
    Treatment: lambda: Treatment("a", "b'"),
    CountTable: lambda: CountTable(1, 0, 2, 3),
    JointTable: lambda: JointTable("1/2", 0, ".25", Fraction(1, 4)),
    LabelSet: lambda: LabelSet(factors={"alpha": "x"}, responses={"a": ["H", "B"]}),
    ExperimentData: sampled,
    ChshReport: lambda: compute_gamma(sampled()),
    MarginalComparison: lambda: MarginalComparison("a", Fraction(1, 2), Fraction(1, 3)),
    MarginalReport: lambda: check_marginal_selectivity(sampled()),
    MsTestResult: lambda: analyze(sampled()).ms_tests[2],
    HiddenStateDistribution: hidden,
    FacetViolation: lambda: FacetViolation(SIGN_PATTERNS[0], Fraction(5, 2)),
    FeasibilityResult: lambda: analyze(sampled()).feasibility,
    Model: lambda: Model(hidden(), "1/10", {t: (1, -1) for t in TREATMENTS}),
    SampleSpec: lambda: SampleSpec(4, 7),
    AnalysisReport: lambda: analyze(sampled()),
}

# Records with a dict among their fields cannot be hashed, as under the dataclasses.
UNHASHABLE = {LabelSet, ExperimentData, ChshReport, Model, AnalysisReport}

# The repr each sample would have as a dataclass. A record built from other records is
# checked here by its own fields and their order; those records have their own line.
REPRS = {
    Treatment: """Treatment(alpha='a', beta="b'")""",
    CountTable: "CountTable(n_pp=1, n_pm=0, n_mp=2, n_mm=3)",
    JointTable: "JointTable(p_pp=Fraction(1, 2), p_pm=Fraction(0, 1), p_mp=Fraction(1, 4), p_mm=Fraction(1, 4))",
    LabelSet: "LabelSet(factors={'alpha': 'x'}, levels=None, responses={'a': ('H', 'B')})",
    ExperimentData: lambda r: (
        f"ExperimentData(tables={r.tables!r}, counts={r.counts!r}, labels=None, independent_counts=False)"
    ),
    ChshReport: "ChshReport(expectations={Treatment(alpha='a', beta='b'): Fraction(1, 1),"
    """ Treatment(alpha='a', beta="b'"): Fraction(-1, 1), Treatment(alpha="a'", beta='b'): Fraction(0, 1),"""
    """ Treatment(alpha="a'", beta="b'"): Fraction(1, 1)})""",
    MarginalComparison: "MarginalComparison(fixed_level='a', p_under_first=Fraction(1, 2), p_under_second=Fraction(1, 3))",
    MarginalReport: lambda r: f"MarginalReport(comparisons={r.comparisons!r}, tolerance=Fraction(0, 1))",
    MsTestResult: lambda r: f"MsTestResult(comparison={r.comparison!r}, n_first=4, n_second=4, alpha_sig=0.05)",
    HiddenStateDistribution: "HiddenStateDistribution(weights=(Fraction(1, 2), "
    + "Fraction(0, 1), " * 9
    + "Fraction(1, 2), "
    + ", ".join(["Fraction(0, 1)"] * 5)
    + "))",
    FacetViolation: "FacetViolation(pattern='+++-', value=Fraction(5, 2))",
    FeasibilityResult: lambda r: f"FeasibilityResult(witness=None, all_violations={r.all_violations!r})",
    Model: lambda r: f"Model(hidden={r.hidden!r}, eta=Fraction(1, 10), cross_map={r.cross_map!r})",
    SampleSpec: "SampleSpec(n_per_treatment=4, seed=7)",
    AnalysisReport: lambda r: (
        f"AnalysisReport(chsh={r.chsh!r}, marginals={r.marginals!r}, ms_tests={r.ms_tests!r},"
        f" feasibility={r.feasibility!r})"
    ),
}

# The slot that stores each such record's fields, and integers to set it to: four cells of 1/4, the expectations
# 1/2, 0, 0 and 0, and sixteen weights of 1/16.
STORED = {
    JointTable: ("scaled_cells", (1, 1, 1, 1, 4)),
    ChshReport: ("scaled_expectations", (1, 0, 0, 0, 2)),
    HiddenStateDistribution: ("scaled_weights", (1,) * 16 + (16,)),
}

records = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def record_classes(cls=_Record):
    """Every subclass of ``_Record`` that the package's modules define, found by walking the class tree."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.split(".")[0] == "selinf":
            found.add(sub)
        found |= record_classes(sub)
    return found


def test_every_record_class_is_sampled():
    for module in pkgutil.iter_modules(selinf.__path__):
        if module.name != "__main__":  # it runs the command line
            importlib.import_module(f"selinf.{module.name}")
    assert set(SAMPLES) == set(REPRS) == record_classes()


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
def test_no_record_keeps_an_instance_dict(cls):
    # every attribute, derived ones too, is a slot set once in __init__
    assert not hasattr(SAMPLES[cls](), "__dict__")


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


@records
def test_fields_are_the_init_parameters_and_other_slots_stay_out_of_repr_and_equality(cls):
    record = SAMPLES[cls]()
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    for name in set(cls.__dict__.get("__slots__", ())) - set(cls._fields):
        changed = copy.copy(record)
        if cls in STORED and name == STORED[cls][0]:  # the slot that stores the fields: changing it changes them
            object.__setattr__(changed, name, STORED[cls][1])
            assert changed != record and repr(changed) != repr(record)
            assert changed == cls(*changed._values())
            assert changed._values() == {
                JointTable: (Fraction(1, 4),) * 4,
                ChshReport: (dict(zip(TREATMENTS, (Fraction(1, 2), 0, 0, 0))),),
                HiddenStateDistribution: ((Fraction(1, 16),) * 16,),
            }[cls]
        else:
            object.__setattr__(changed, name, object())
            assert changed == record and repr(changed) == repr(record)


def test_fields_from_init_and_derived_attributes():
    # every field is an __init__ parameter, with the same name, order and default as before
    def defaults(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert defaults(ExperimentData) == [
        ("tables", empty), ("counts", None), ("labels", None), ("independent_counts", False)
    ]
    assert defaults(Model) == [("hidden", empty), ("eta", Fraction(0)), ("cross_map", None)]
    # a report record takes only its inputs and derives the rest
    assert defaults(ChshReport) == [("expectations", empty)]
    assert defaults(MsTestResult) == [("comparison", empty), ("n_first", empty), ("n_second", empty), ("alpha_sig", empty)]
    assert defaults(FeasibilityResult) == [("witness", None), ("all_violations", ())]
    chsh = compute_gamma(sampled())
    assert chsh.gamma == 3 and chsh.argmax_patterns == ("+-++",)
    assert chsh.classification == "supra-quantum" and chsh.sums[SIGN_PATTERNS[0]] == -1
    test = SAMPLES[MsTestResult]()
    assert (test.z_statistic, test.p_value, test.reject, test.degenerate) == (
        -1.6329931618554523, 0.10247043485974938, False, False
    )
    feasibility = SAMPLES[FeasibilityResult]()
    assert feasibility.feasible is False and feasibility.certificate == feasibility.all_violations[0]
    # max_delta is computed once, like each comparison's delta, and shown or compared by neither
    report = check_marginal_selectivity(sampled())
    assert report.max_delta == max(c.delta for c in report.comparisons) == Fraction(1, 2)
    assert "max_delta" not in repr(report) and "delta" not in repr(report.comparisons[0])
    again = MarginalReport(report.comparisons, report.tolerance)
    assert again == report and again.max_delta == report.max_delta

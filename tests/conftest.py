"""Shared fixtures and random-data generators for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from selinf import simplex
from selinf.cli import load_fixture_text
from selinf.feasibility import HiddenStateDistribution, predicted_tables
from selinf.io import parse_experiment
from selinf.model import MAX_COMMON_DENOMINATOR, TREATMENTS, ExperimentData, JointTable


@pytest.fixture(scope="session")
def table1():
    return parse_experiment(load_fixture_text("table1"))


@pytest.fixture(scope="session")
def table2():
    return parse_experiment(load_fixture_text("table2"))


@pytest.fixture(scope="session")
def table3():
    return parse_experiment(load_fixture_text("table3"))


@pytest.fixture
def full_tableau_runs(monkeypatch):
    """A list that grows by one each time phase 1 runs the full tableau.

    Phase 1's step cache, ``simplex.STEPS``, starts the test empty and gets
    its steps back afterwards.
    """
    saved = dict(simplex.STEPS)
    simplex.STEPS.clear()
    runs = []
    original = simplex._tableau_steps
    monkeypatch.setattr(simplex, "_tableau_steps", lambda *a: runs.append(1) or original(*a))
    yield runs
    simplex.STEPS.clear()
    simplex.STEPS.update(saved)


@pytest.fixture
def tables_built(monkeypatch):
    """A list that grows by the class name of each ``ExperimentData`` and ``JointTable`` constructed, and by
    "ExperimentData._hold" or "JointTable._hold" at each call of the method that sets its record."""
    built = []
    for cls in (ExperimentData, JointTable):
        def counted(self, *args, original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        def held(self, *args, original=cls._hold, **kwargs):
            built.append(f"{type(self).__name__}._hold")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
        monkeypatch.setattr(cls, "_hold", held)
    return built


@pytest.fixture
def fractions_built(monkeypatch):
    """A list that grows by the arguments of each ``Fraction`` constructed, by any module."""
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


def random_hidden_distribution(rng: random.Random, max_weight: int = 30) -> HiddenStateDistribution:
    """Random rational distribution over the 16 hidden states."""
    weights = [Fraction(rng.randint(0, max_weight)) for _ in range(16)]
    if sum(weights) == 0:
        weights[rng.randrange(16)] = Fraction(1)
    total = sum(weights)
    return HiddenStateDistribution(tuple(w / total for w in weights))


def random_ms_data(rng: random.Random, denom: int = 24) -> ExperimentData:
    """Random tables with exact marginal selectivity.

    Marginals Pr(A=+1) per alpha level and Pr(B=+1) per beta level are drawn
    first; each treatment's p_pp is then placed uniformly inside its
    Frechet-Hoeffding interval, which spans every joint with those margins.
    """
    pa = {lv: Fraction(rng.randint(0, denom), denom) for lv in ("a", "a'")}
    pb = {lv: Fraction(rng.randint(0, denom), denom) for lv in ("b", "b'")}
    tables = {}
    for t in TREATMENTS:
        a, b = pa[t.alpha], pb[t.beta]
        lo = max(Fraction(0), a + b - 1)
        hi = min(a, b)
        mix = Fraction(rng.randint(0, 16), 16)
        p_pp = lo + mix * (hi - lo)
        tables[t] = JointTable(p_pp, a - p_pp, b - p_pp, 1 - a - b + p_pp)
    return ExperimentData(tables=tables)


def random_any_data(rng: random.Random, denom: int = 20) -> ExperimentData:
    """Random valid tables with no selectivity constraint (MS almost surely fails)."""
    tables = {}
    for t in TREATMENTS:
        cells = [Fraction(rng.randint(0, denom)) for _ in range(4)]
        if sum(cells) == 0:
            cells[rng.randrange(4)] = Fraction(1)
        total = sum(cells)
        tables[t] = JointTable(*(c / total for c in cells))
    return ExperimentData(tables=tables)


def selective_batch_cases():
    """Push-forwards alternating with marginally selective tables, as in the benchmark's selective-batch pool."""
    rng = random.Random(301)
    for i in range(400):
        yield predicted_tables(random_hidden_distribution(rng)) if i % 2 == 0 else random_ms_data(rng)


def cap_denominator_distribution() -> HiddenStateDistribution:
    """16 seeded weights over the denominator 10**2000 - 1, just under the cap."""
    denominator = MAX_COMMON_DENOMINATOR - 1
    rng = random.Random(2000)
    parts = [rng.randrange(denominator // 16) for _ in range(15)]
    parts.append(denominator - sum(parts))
    return HiddenStateDistribution(tuple(Fraction(a, denominator) for a in parts))


def cap_denominator_push_forward() -> ExperimentData:
    """The push-forward of ``cap_denominator_distribution()``."""
    return predicted_tables(cap_denominator_distribution())


def pr_box() -> ExperimentData:
    """The extremal no-signaling behavior: three aligned tables, one anti-aligned."""
    half = Fraction(1, 2)
    aligned = JointTable(half, 0, 0, half)
    crossed = JointTable(0, half, half, 0)
    tables = dict.fromkeys(TREATMENTS[:3], aligned)
    tables[TREATMENTS[3]] = crossed
    return ExperimentData(tables=tables)


def large_denominator_documents() -> dict[str, str]:
    """Experiment texts whose reports would need integers beyond 4,300 digits.

    "renormalized": an a,b block of 1/(10**2500+1), 0, 1/(10**2500+3), 1 with
    "renormalize" set. "combined": exact a,b and a,b' blocks with pp =
    1/(10**2200+1) and 1/(10**2200+3) and mm = 1 - pp; each cell prints, but
    the CHSH sums combine the two denominators. Other tables are uniform.
    """

    def exact(denominator: int) -> dict[str, str]:
        pp = Fraction(1, denominator)
        return {"pp": str(pp), "pm": "0", "mp": "0", "mm": str(1 - pp)}

    uniform = {"pp": "1/4", "pm": "1/4", "mp": "1/4", "mm": "1/4"}
    renormalized = {"pp": f"1/{10**2500 + 1}", "pm": "0", "mp": f"1/{10**2500 + 3}", "mm": "1"}
    docs = {
        "renormalized": {
            "treatments": {"a,b": renormalized, "a,b'": uniform, "a',b": uniform, "a',b'": uniform},
            "renormalize": True,
        },
        "combined": {
            "treatments": {
                "a,b": exact(10**2200 + 1),
                "a,b'": exact(10**2200 + 3),
                "a',b": uniform,
                "a',b'": uniform,
            }
        },
    }
    return {name: json.dumps(doc) for name, doc in docs.items()}


CROSS_MAP = {"a,b": "++", "a,b'": "+-", "a',b": "-+", "a',b'": "--"}


def oversized_model_documents() -> dict[str, str]:
    """Model texts whose error messages would print integers beyond 4,300 digits.

    "hidden-denominators": weights 1/(10**3000+1) and 1/(10**3000+3), whose sum
    is not 1. "hidden-numerator": one weight of 4,000 nines times 10**1000.
    "eta-numerator": eta of that size, outside [0, 1].
    """
    huge = "9" * 4000 + "e1000"
    docs = {
        "hidden-denominators": {"hidden": {"++++": f"1/{10**3000 + 1}", "----": f"1/{10**3000 + 3}"}},
        "hidden-numerator": {"hidden": {"++++": huge}},
        "eta-numerator": {"hidden": {"++++": "1"}, "eta": huge, "cross_map": CROSS_MAP},
    }
    return {name: json.dumps(doc) for name, doc in docs.items()}

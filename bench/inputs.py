"""Seeded inputs for the benchmark, built without the program under test.

Every generator takes a ``random.Random`` seeded from the benchmark's
``--seed`` and returns documents in the program's input formats (experiment
and model JSON text), together with the exact tables the benchmark itself
computed, so that the checks can compare the program's answers against data
the program never produced.

Tables are held as ``{treatment key: (pp, pm, mp, mm)}`` of ``Fraction``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

TREATMENT_KEYS = ("a,b", "a,b'", "a',b", "a',b'")
CELL_KEYS = ("pp", "pm", "mp", "mm")
# (alpha level, beta level) of each treatment: 0 is the first level, 1 the primed one.
TREATMENT_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Hidden states A(a) A(a') B(b) B(b'), "+" before "-": the program's state order.
STATES = tuple("".join(s) for s in itertools.product("+-", repeat=4))
_CELL_INDEX = {"++": 0, "+-": 1, "-+": 2, "--": 3}

Cells = dict[str, tuple[Fraction, Fraction, Fraction, Fraction]]


@dataclass(frozen=True)
class Case:
    """One experiment document and the exact tables it encodes."""

    text: str
    cells: Cells


def push_forward(weights: Sequence[Fraction]) -> Cells:
    """The four joint tables a distribution over the 16 hidden states produces."""
    acc = {key: [Fraction(0)] * 4 for key in TREATMENT_KEYS}
    for state, w in zip(STATES, weights):
        if w:
            for key, (alpha, beta) in zip(TREATMENT_KEYS, TREATMENT_LEVELS):
                acc[key][_CELL_INDEX[state[alpha] + state[2 + beta]]] += w
    return {key: tuple(acc[key]) for key in TREATMENT_KEYS}


def random_hidden_weights(rng: random.Random, max_weight: int = 30) -> list[Fraction]:
    """Random rational distribution over the hidden states, as in tests/conftest.py."""
    weights = [Fraction(rng.randint(0, max_weight)) for _ in range(16)]
    if sum(weights) == 0:
        weights[rng.randrange(16)] = Fraction(1)
    total = sum(weights)
    return [w / total for w in weights]


def random_ms_cells(rng: random.Random, denom: int = 24) -> Cells:
    """Random exactly marginally-selective tables, as in tests/conftest.py.

    Marginals are drawn per level first; each treatment's p_pp is then put
    uniformly inside its Frechet-Hoeffding interval.
    """
    pa = [Fraction(rng.randint(0, denom), denom) for _ in range(2)]
    pb = [Fraction(rng.randint(0, denom), denom) for _ in range(2)]
    cells = {}
    for key, (alpha, beta) in zip(TREATMENT_KEYS, TREATMENT_LEVELS):
        a, b = pa[alpha], pb[beta]
        lo = max(Fraction(0), a + b - 1)
        hi = min(a, b)
        p_pp = lo + Fraction(rng.randint(0, 16), 16) * (hi - lo)
        cells[key] = (p_pp, a - p_pp, b - p_pp, 1 - a - b + p_pp)
    return cells


def experiment_text(cells: Cells) -> str:
    """An experiment document with every cell an exact fraction string."""
    treatments = {
        key: {ck: str(v) for ck, v in zip(CELL_KEYS, cells[key])} for key in TREATMENT_KEYS
    }
    return json.dumps({"treatments": treatments}, indent=2)


def selective_cases(rng: random.Random, count: int) -> list[Case]:
    """Alternating push-forwards of random hidden distributions and exactly MS tables."""
    cases = []
    for i in range(count):
        if i % 2 == 0:
            cells = push_forward(random_hidden_weights(rng))
        else:
            cells = random_ms_cells(rng)
        cases.append(Case(experiment_text(cells), cells))
    return cases


POWER_ETAS = ("0", "1/20", "1/5")


def power_model_texts(rng: random.Random, count: int) -> list[str]:
    """Model documents: selective at eta 0, contaminated with a random cross_map otherwise."""
    texts = []
    for i in range(count):
        weights = random_hidden_weights(rng)
        doc: dict = {"hidden": {s: str(w) for s, w in zip(STATES, weights) if w}}
        eta = POWER_ETAS[i % len(POWER_ETAS)]
        if eta != "0":
            doc["eta"] = eta
            doc["cross_map"] = {key: rng.choice(tuple(_CELL_INDEX)) for key in TREATMENT_KEYS}
        texts.append(json.dumps(doc))
    return texts

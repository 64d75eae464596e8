"""Synthetic experiments from latent models, reproducible across platforms.

Models
------
One type, ``Model(hidden, eta, cross_map)``, covers both cases. Its tables mix
the hidden-state distribution's exact push-forward, per treatment, with a point
mass on a fixed treatment-indexed outcome pair at rate eta, the simplest
mechanism by which a response can leak information about the other factor.
Without a ``cross_map`` eta must be 0, and the model is the selective one: its
tables are the push-forward itself. At construction a model mixes the
push-forward's integer cells over one denominator, once, and builds its tables
and the thresholds below from the mixed integers.

Model file format (JSON)
------------------------
::

    {
      "hidden": {"++++": "1/2", "----": "1/2"},   # states by A(a)A(a')B(b)B(b')
      "eta": "0.1",                                # optional contamination rate
      "cross_map": {"a,b": "++", "a,b'": "+-", "a',b": "-+", "a',b'": "--"}
    }

Missing states weigh 0. ``cross_map`` (required when eta > 0) forces the
written outcome pair, A then B, when contamination strikes. ``parse_model``
reads the document text and rejects hidden weights whose least common
denominator L, or a numerator over L, passes 10**2000, and such an eta.

Random number contract
----------------------
Sampling uses SplitMix64 so that any implementation, in any language, can
reproduce the counts bit-for-bit from (model, n, seed):

* state update: ``state = (state + 0x9E3779B97F4A7C15) mod 2^64``
* output: ``z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB; z = z ^ (z >> 31)``
  (all arithmetic mod 2^64).

Substreams: a root SplitMix64 stream seeded with the experiment seed emits
four values, one per treatment in the canonical order (a,b), (a,b'),
(a',b), (a',b'); each value seeds that treatment's own stream. Treatments
are therefore sampled independently and could run concurrently without
changing the result.

One draw from a table maps r = next_uint64() >> 11 (a 53-bit value) to the
first cell whose cumulative threshold exceeds r, thresholds being
ceil(cum * 2^53) over the fixed cell order pp, pm, mp, mm.

Evaluation
----------
The state after k steps is ``seed + k * 0x9E3779B97F4A7C15 mod 2^64``, so
``sample_counts`` evaluates the contract a chunk of draws at a time: the
chunk's states are packed as 128-bit lanes of one Python int, and the
output function runs on all lanes at once (each multiply stays inside its
lane). A cell's count is the number of outputs at or beyond its threshold
t << 11: the lanes are written out once as bytes, ``bytes.translate`` counts
the outputs whose top byte exceeds its, and a top-byte tie is decided on byte 6
of the lane. The last step ``z ^ (z >> 31)`` changes only bits 0..32, so bytes
6 and 7 of a lane are those of the output; only a tie on both takes the last
step and a full comparison. The counts equal those of drawing one at a time.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Optional

from .errors import InvalidValue, ParseError
from .feasibility import HiddenStateDistribution, _push_forward
from .io import _load, _reject_unknown
from .model import (
    CELLS,
    MAX_COMMON_DENOMINATOR,
    MAX_COUNT_TOTAL,
    TREATMENTS,
    CountTable,
    ExperimentData,
    Rational,
    Treatment,
    _Record,
    decode_signs,
    echo,
    over_common_denominator,
    printable,
    rational,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANES = 4096  # draws per chunk; one chunk's lanes fill a 64 KB int
_BYTES = bytes(range(256))


class SplitMix64:
    """The SplitMix64 generator; 64-bit state, 64-bit outputs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


@lru_cache(maxsize=4)  # a chunk's width is _LANES or the remainder; 192 KB each at most
def _lane_constants(width: int) -> tuple[int, int, int]:
    """For ``width`` 128-bit lanes: 1 in every lane, GOLDEN * (j + 1) in lane j,
    and 2^64 - 1 in every lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * width, "little")
    ramp = int.from_bytes(struct.pack("<" + "Q8x" * width, *range(1, width + 1)), "little")
    return ones, _GOLDEN * ramp, ones * _MASK64


def _tallies(n: int, streams: list[tuple[int, list[int]]]) -> list[list[int]]:
    """Cell counts of the first n draws of each (seed, cell thresholds) stream.

    A draw reaches threshold th when its output is at least t = th << 11: its top
    byte exceeds t's, or ties with it (about one draw in 256) and its byte 6
    exceeds t's, or ties too (one draw in 65,536) and the full output
    ``v ^ (v >> 31)``, whose bytes 6 and 7 are v's, is at least t.
    """
    tallies = []
    for seed, thresholds in streams:
        above = [n, 0, 0, 0, 0]  # above[i + 1]: draws whose r reaches thresholds[i]
        done = 0
        while done < n:
            width = min(_LANES, n - done)
            ones, golden_ramp, mask = _lane_constants(width)
            z = (((seed + done * _GOLDEN) & _MASK64) * ones + golden_ramp) & mask
            # a right shift moves the next lane's low bits into this lane's padding
            z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
            # no mask: each lane's product is below 2^128, and its bytes 0..7 are v = product mod 2^64
            lanes = (((z ^ (z >> 27)) & mask) * _MIX2).to_bytes(16 * width, "little")
            top = lanes[7::16]  # the output v ^ (v >> 31) has v's top byte
            for i, t in enumerate(th << 11 for th in thresholds[:3] if th < 1 << 53):  # sorted; no r reaches 2^53
                tb, t6 = t >> 56, t >> 48 & 255
                above[i + 1] += len(top.translate(None, _BYTES[: tb + 1]))
                j = top.find(tb)
                while j >= 0:  # a top-byte tie: byte 6, also v's own, decides it unless it ties too
                    b6 = lanes[16 * j + 6]
                    if b6 > t6:
                        above[i + 1] += 1
                    elif b6 == t6:
                        v = int.from_bytes(lanes[16 * j : 16 * j + 8], "little")
                        above[i + 1] += v ^ (v >> 31) >= t
                    j = top.find(tb, j + 1)
            done += width
        tallies.append([above[k] - above[k + 1] for k in range(4)])
    return tallies


class Model(_Record):
    """A latent model: a hidden-state core, contaminated at rate eta by fixed outcomes.

    ``cross_map`` gives, for every treatment, the outcome pair forced when
    contamination strikes; because it may vary with the full treatment, both
    responses can effectively read both factors through it. Without a
    ``cross_map`` (so at eta = 0) the model is selective. The exact tables and
    the sampling thresholds are derived once, at construction.
    """

    __slots__ = ("hidden", "eta", "cross_map", "tables", "_thresholds")
    _fields = ("hidden", "eta", "cross_map")
    tables: ExperimentData
    _thresholds: list[list[int]]

    def __init__(
        self, hidden: HiddenStateDistribution, eta: Rational = Fraction(0),
        cross_map: Optional[Mapping[Treatment, tuple[int, int]]] = None,
    ) -> None:
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "eta", rational(eta))
        if not 0 <= self.eta <= 1:
            raise InvalidValue(f"eta must be in [0, 1], got {printable(self.eta)}")
        if cross_map is None:
            if self.eta != 0:
                raise InvalidValue("eta > 0 needs a cross_map of forced outcome pairs")
        else:
            if set(cross_map) != set(TREATMENTS):
                raise InvalidValue("cross_map must give an outcome pair for all four treatments")
            cross_map = {t: tuple(pair) for t, pair in cross_map.items()}
            for t, pair in cross_map.items():
                if pair not in CELLS:
                    raise InvalidValue(f"cross_map[{t.key}] = {pair!r} is not a +1/-1 pair")
        object.__setattr__(self, "cross_map", cross_map)
        # eta = e/d and the push-forward's cells over L, mixed with each forced pair's point mass:
        # (e L [the cell is forced] + (d - e) cell) / (d L); without a cross_map e = 0 and d = 1
        e, d = self.eta.as_integer_ratio()
        *cells, lcd = _push_forward(hidden)
        forced = {4 * t.index + CELLS.index(pair) for t, pair in (cross_map or {}).items()}
        mixed, lcd = [e * lcd * (k in forced) + (d - e) * c for k, c in enumerate(cells)], d * lcd
        object.__setattr__(self, "tables", ExperimentData.__new__(ExperimentData)._hold([(*mixed, lcd)]))
        # per treatment, ceil(cumulative * 2^53) per cell, which depends only on the rational; the last is exactly 2^53
        object.__setattr__(self, "_thresholds", [
            [-((-cum << 53) // lcd) for cum in accumulate(mixed[k : k + 4])] for k in range(0, 16, 4)
        ])


def parse_model(text: str) -> Model:
    """Parse the text of a model file into a ``Model``; one with no ``cross_map``
    has eta = 0 and is the selective model."""
    doc = _load(text, "model document")
    _reject_unknown(doc, {"hidden", "eta", "cross_map"}, "unknown top-level keys")
    if "hidden" not in doc or not isinstance(doc["hidden"], Mapping):
        raise ParseError('model needs a "hidden" object of state weights')
    try:
        numerators, lcd = over_common_denominator(doc["hidden"].values())
        if max([lcd, *map(abs, numerators)]) > MAX_COMMON_DENOMINATOR:  # the documented input cap, as for eta
            raise ParseError("hidden: a numerator or the least common denominator exceeds 10**2000")
        hidden = HiddenStateDistribution.from_mapping(doc["hidden"])
    except InvalidValue as exc:
        raise ParseError(f"bad hidden-state weights: {exc}") from exc
    try:
        eta = rational(doc.get("eta", 0))
    except InvalidValue as exc:
        raise ParseError(f"bad eta: {exc}") from exc
    if max(eta.denominator, abs(eta.numerator)) > MAX_COMMON_DENOMINATOR:  # Model's range error prints eta
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


class SampleSpec(_Record):
    """How much to sample and with which seed."""

    __slots__ = _fields = ("n_per_treatment", "seed")

    def __init__(self, n_per_treatment: int, seed: int) -> None:
        object.__setattr__(self, "n_per_treatment", n_per_treatment)
        object.__setattr__(self, "seed", seed)
        if type(n_per_treatment) is not int or not 1 <= n_per_treatment <= MAX_COUNT_TOTAL:  # so not bool
            raise InvalidValue(f"n_per_treatment must be an integer from 1 to 2**53, got {echo(n_per_treatment)}")
        if type(seed) is not int or not 0 <= seed < (1 << 64):
            raise InvalidValue(f"seed must be a 64-bit unsigned integer, got {echo(seed)}")


def sample_counts(model: Model, spec: SampleSpec) -> ExperimentData:
    """Draw n observations per treatment; returns count-derived tables plus counts.

    Deterministic in (model, spec): same inputs give identical counts.
    """
    root = SplitMix64(spec.seed)
    streams = [(root.next_uint64(), thresholds) for thresholds in model._thresholds]
    tallies = _tallies(spec.n_per_treatment, streams)
    counts = {t: CountTable(*tally) for t, tally in zip(TREATMENTS, tallies)}
    return ExperimentData.__new__(ExperimentData)._hold([(*tally, spec.n_per_treatment) for tally in tallies], counts)

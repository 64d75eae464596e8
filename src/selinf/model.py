"""Exact data model for 2x2 factorial experiments with two binary responses.

Two factors (alpha with levels a/a', beta with levels b/b') are crossed into
four treatments; under each treatment two responses A and B are recorded,
coded +1 for the first listed alternative and -1 for the second. A level is
its key string, one of ``LEVELS``, and a ``Treatment`` is a pair of them,
alpha's then beta's, such as ("a'", "b") with key "a',b". Every
probability in this package is an exact rational: decimal strings such
as ".049" parse to the exact rational 49/1000, so equality checks downstream
(witness round-trips, criterion equivalences) are bit-exact rather than
tolerance-based.

Data, CHSH reports and witnesses hold integers: numerators over their least
common denominator L (``over_common_denominator``), then L. ``integer_ratio``
reads plain ASCII "p/q" and decimal strings as lowest-terms integer pairs with
``int`` and ``math.gcd``, the rest with ``Fraction``; ``rational`` is the
``Fraction`` of that pair. A ``JointTable`` checks its cells' pairs and holds
the four over their L, its ``scaled_cells``, as a CHSH report holds its
expectations and a hidden-state distribution its weights, ``scaled_weights``;
a field is a ``Fraction`` built when read. ``ExperimentData`` puts its 16
cells over one L from its tables' four, once, and checks a cell s/L against
its count c of n as ``s * n == c * L``. The cap check, CHSH sums and class,
marginals and their deltas, the simplex and the witness check read that vector
and compare plain integers, with no gcd per step; ``fraction_text`` prints p/q
as ``str(Fraction(p, q))`` does. Other report values, such as the marginals,
are still ``Fraction``s, built once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Optional, Union

from .errors import InvalidValue

Rational = Union[Fraction, int, str, float]

# Input caps, checked before any big integer is built. Fraction("1e-2000000")
# would expand 10**2000000; z-tests need count totals that are exact floats.
MAX_DECIMAL_EXPONENT = 1000
MAX_COUNT_TOTAL = 2**53
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# Every rational a report computes from the tables has a denominator that
# divides the least common denominator L of the 16 table cells (a witness
# weight too, since every pivot of the simplex's phase 1 is 1), and a
# numerator at most 4 times that denominator. Capping L keeps every rendered
# number far below Python's 4,300-digit int-to-str limit; ``io`` checks it on
# ``ExperimentData.scaled_cells`` when parsing and in ``analyze``. Phase 1
# pivots on integers, the cells scaled by L; its tableau entries stay under
# 2**22 * L (see ``simplex``), so about 2,000 digits at the cap.
MAX_COMMON_DENOMINATOR = 10**2000


def exceeds_common_denominator_cap(values: Collection[Fraction]) -> bool:
    """Whether the values' least common denominator, or a numerator's magnitude, exceeds 10**2000."""
    lcd = math.lcm(*[v.denominator for v in values])
    return max([lcd, *[abs(v.numerator) for v in values]]) > MAX_COMMON_DENOMINATOR  # no values: lcd = 1 alone


def _leading(n: int, count: int) -> tuple[str, int]:
    """The first ``count`` decimal digits of n >= 0, and how many digits n has; only those are converted to text."""
    digits = max(1, int(n.bit_length() * 0.30102999566398))  # log10(2), rounded down: never above the count
    while n >= 10**digits:
        digits += 1
    return str(n // 10 ** max(0, digits - count)), digits


def printable(value: Fraction) -> str:
    """``value`` as text for a message: its first 60 characters and its digit count when it is longer.

    Only leading digits are converted to text, so values past Python's 4,300-digit limit print too."""
    (num, p), (den, q) = _leading(abs(value.numerator), 61), _leading(value.denominator, 61)
    whole = value.denominator == 1
    text = "-" * (value < 0) + num + ("" if whole else "/" + den)
    return text if len(text) <= 60 else f"{text[:60]}... ({p + (0 if whole else q):,} digits)"


def echo(value: object) -> str:
    """``repr(value)`` for a message: its first 60 characters and its length when it is longer."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text):,} characters)"


def fraction_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for q > 0, from one gcd: "p/q" in lowest terms, or the integer alone."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator L, and L."""
    ratios = [v.as_integer_ratio() for v in values]
    lcd = math.lcm(*[q for _, q in ratios])
    return [p * (lcd // q) for p, q in ratios], lcd


def integer_ratio(value: Rational) -> tuple[int, int]:
    """``value`` as an exact lowest-terms pair (p, q) of integers, q > 0.

    Strings may be decimals (".049" -> 49/1000) or ratios ("49/1000").
    Floats go through their shortest decimal repr, so a JSON number 0.049
    also becomes exactly 49/1000. Decimal exponents beyond
    ``MAX_DECIMAL_EXPONENT`` in magnitude are rejected. Plain strings are read
    with ``int`` and ``math.gcd``, as ``Fraction`` would read them; the rest go
    to ``Fraction``.
    """
    text = repr(value) if isinstance(value, float) else value
    plain = False
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        whole, _, decimals = num.partition(".")
        # "p/q" or a plain decimal in ASCII digits, which int() reads as Fraction() would
        plain = text.isascii() and (num.isdigit() and den.isdigit() if slash else (whole + decimals).isdigit())
        exponent = None if plain else _DECIMAL_EXPONENT.search(text)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if digits and (len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT):
            raise InvalidValue(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        if plain:  # "p/q" has no "." in p
            p, q = (int(num), int(den)) if slash else (int(whole + decimals), 10 ** len(decimals))
            g = math.gcd(p, q) if q else 0  # so q = 0 divides by zero, as Fraction does
            return p // g, q // g
        if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
            return value.as_integer_ratio()
        if isinstance(text, str):
            return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidValue(f"cannot interpret {echo(value)} as a rational") from exc
    raise InvalidValue(f"cannot interpret {echo(value)} as a rational")


def rational(value: Rational) -> Fraction:
    """``value`` as an exact Fraction, read by ``integer_ratio``."""
    return Fraction(*integer_ratio(value))


def decode_signs(text: object, length: int, what: str) -> tuple[int, ...]:
    """Read a string of ``length`` "+"/"-" characters as +1/-1 signs."""
    if not isinstance(text, str) or len(text) != length or set(text) - {"+", "-"}:
        raise InvalidValue(f"{what} must be {length} of +/-, got {echo(text)}")
    return tuple(1 if ch == "+" else -1 for ch in text)


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` made one but without its import-time cost.

    A subclass lists its attributes in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``. Equality, hash, repr and
    ``__reduce__`` cover the fields named in ``_fields``, the ``__init__``
    parameters in order; attributes derived once, such as ``key``, stay out.
    Equality compares only the slot ``_canonical`` names, if any: the fields as integers in lowest terms.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _canonical = ""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._canonical:  # builds no Fraction
            return getattr(self, self._canonical) == getattr(other, self._canonical)
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, which sets frozen fields
        return self.__class__, self._values()


# The four factor levels, each its key: alpha's a and a', then beta's b and b'.
LEVELS = ("a", "a'", "b", "b'")


class Treatment(_Record):
    """A pair of level keys, alpha's then beta's; four exist, hashed by ``index``, their canonical position."""

    __slots__ = ("alpha", "beta", "index", "key")
    _fields = ("alpha", "beta")
    index: int
    key: str

    def __init__(self, alpha: str, beta: str) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha not in LEVELS[:2] or beta not in LEVELS[2:]:  # compared by ==, so any value gets this error
            raise InvalidValue(f"treatment needs an alpha level and a beta level, got {echo(alpha)} and {echo(beta)}")
        object.__setattr__(self, "index", 2 * (alpha == "a'") + (beta == "b'"))
        object.__setattr__(self, "key", f"{alpha},{beta}")

    def __hash__(self) -> int:
        return self.index

    @classmethod
    def from_key(cls, key: str) -> "Treatment":
        if key not in _TREATMENT_BY_KEY:
            raise InvalidValue(f"unknown treatment key {echo(key)}")
        return _TREATMENT_BY_KEY[key]

    def __str__(self) -> str:
        return self.key


TREATMENTS = (Treatment("a", "b"), Treatment("a", "b'"), Treatment("a'", "b"), Treatment("a'", "b'"))
_TREATMENT_BY_KEY = {t.key: t for t in TREATMENTS}

# Outcome pairs (A, B) in the fixed cell order pp, pm, mp, mm.
CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_CELL_FIELDS = ("p_pp", "p_pm", "p_mp", "p_mm")


class CountTable(_Record):
    """Observed outcome counts for one treatment."""

    __slots__ = _fields = ("n_pp", "n_pm", "n_mp", "n_mm")

    def __init__(self, n_pp: int, n_pm: int, n_mp: int, n_mm: int) -> None:
        object.__setattr__(self, "n_pp", n_pp)
        object.__setattr__(self, "n_pm", n_pm)
        object.__setattr__(self, "n_mp", n_mp)
        object.__setattr__(self, "n_mm", n_mm)
        for name, v in zip(self._fields, (n_pp, n_pm, n_mp, n_mm)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidValue(f"count {name} must be an integer, got {echo(v)}")
            if v < 0:
                raise InvalidValue(f"count {name} must be nonnegative, got {echo(v)}")
        if self.n == 0:
            raise InvalidValue("count table has zero total observations")
        if self.n > MAX_COUNT_TOTAL:
            raise InvalidValue("count table total exceeds 2**53 observations")

    @property
    def n(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    def normalized(self) -> "JointTable":
        """Exact cell fractions count/n: the counts and n over their one gcd are the table's ``scaled_cells``."""
        n, cells = self.n, self.cells()
        g = math.gcd(n, *cells)
        return JointTable.__new__(JointTable)._hold(*(c // g for c in cells), n // g)


class JointTable(_Record):
    """Joint distribution of (A, B) in {+1,-1}^2 under one treatment.

    Cell names follow the sign coding: p_pm is Pr(A=+1, B=-1). Cells must be
    rationals in [0, 1] summing to exactly 1, each read as an integer pair by
    ``integer_ratio`` and checked on it. The table holds only ``scaled_cells``,
    the four as integers over their least common denominator L, then L; each
    cell, and ``cells()``, is a ``Fraction`` built when read. A count table
    of n observations matches it when s * n == c * L for each cell s/L and
    its count c; ``CountTable.normalized()`` sets those integers directly.
    """

    __slots__ = ("scaled_cells",)
    _fields = _CELL_FIELDS
    _canonical = "scaled_cells"
    scaled_cells: tuple[int, int, int, int, int]

    def __init__(self, p_pp: Rational, p_pm: Rational, p_mp: Rational, p_mm: Rational) -> None:
        ratios = []
        for name, v in zip(_CELL_FIELDS, (p_pp, p_pm, p_mp, p_mm)):
            p, q = integer_ratio(v)
            if not 0 <= p <= q:
                raise InvalidValue(f"cell {name} = {printable(Fraction(p, q))} outside [0, 1]")
            ratios.append((p, q))
        lcd = math.lcm(*[q for _, q in ratios])
        numerators = [p * (lcd // q) for p, q in ratios]
        if sum(numerators) != lcd:
            raise InvalidValue(f"cells sum to {printable(Fraction(sum(numerators), lcd))}, expected exactly 1")
        self._hold(*numerators, lcd)

    def _hold(self, *scaled: int) -> "JointTable":  # the one place that sets the cells, checked by __init__ or by counts
        object.__setattr__(self, "scaled_cells", scaled)
        return self

    p_pp, p_pm, p_mp, p_mm = (  # each cell a Fraction, built when read
        property(lambda self, k=k: Fraction(self.scaled_cells[k], self.scaled_cells[4])) for k in range(4)
    )

    def cells(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


_LABEL_KEYS = {
    "factors": ("alpha", "beta"),
    "levels": LEVELS,
    "responses": LEVELS,
}


class LabelSet(_Record):
    """Optional display names: factor names, level prompts, response alternatives.

    ``responses`` maps a level key ("a", "a'", "b", "b'") to the pair of
    alternative names, first alternative (+1) before second (-1). Every
    name is a nonempty string.
    """

    __slots__ = _fields = tuple(_LABEL_KEYS)

    def __init__(
        self, factors: Optional[Mapping[str, str]] = None, levels: Optional[Mapping[str, str]] = None,
        responses: Optional[Mapping[str, tuple[str, str]]] = None,
    ) -> None:
        for (section, keys), mapping in zip(_LABEL_KEYS.items(), (factors, levels, responses)):
            object.__setattr__(self, section, mapping)
            if mapping is None:
                continue
            bad = set(mapping) - set(keys)
            if bad:
                raise InvalidValue(f"unknown keys {echo(sorted(bad))} in labels.{section}")
            pair = section == "responses"
            fixed = {}
            for key, value in mapping.items():
                names = tuple(value) if pair and isinstance(value, (list, tuple)) else (value,)
                if len(names) != (2 if pair else 1) or not all(isinstance(name, str) and name for name in names):
                    shape = "a list of two nonempty strings" if pair else "a nonempty string"
                    raise InvalidValue(f"labels.{section}[{echo(key)}] must be {shape}")
                fixed[key] = names if pair else value
            object.__setattr__(self, section, fixed)

    def response_pair(self, level: str) -> Optional[tuple[str, str]]:
        if self.responses is None:
            return None
        return self.responses.get(level)


class ExperimentData(_Record):
    """The four joint tables of one experiment, optionally with counts and labels.

    When ``counts`` are present each table must equal its count table
    normalized, checked as ``s * n == c * L`` on the table's integers (see ``JointTable``),
    unless ``independent_counts`` marks the probabilities as
    supplied separately from the counts (e.g. published rounded estimates
    alongside the sample size). ``scaled_cells`` holds the 16 cells in order
    as integers over their least common denominator L, then L.
    """

    __slots__ = ("tables", "counts", "labels", "independent_counts", "scaled_cells")
    _fields = ("tables", "counts", "labels", "independent_counts")
    scaled_cells: tuple[int, ...]

    def __init__(
        self, tables: Mapping[Treatment, JointTable], counts: Optional[Mapping[Treatment, CountTable]] = None,
        labels: Optional[LabelSet] = None, independent_counts: bool = False,
    ) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "independent_counts", independent_counts)
        found = set(tables)
        if found != set(TREATMENTS):
            missing = [t.key for t in TREATMENTS if t not in found]
            if missing:
                raise InvalidValue(f"missing treatments: {missing}")
            raise InvalidValue("tables must be keyed by the four treatments")
        tables = {t: tables[t] for t in TREATMENTS}
        object.__setattr__(self, "tables", tables)
        lcd = math.lcm(*[table.scaled_cells[4] for table in tables.values()])
        scaled = [v * (lcd // table.scaled_cells[4]) for table in tables.values() for v in table.scaled_cells[:4]]
        object.__setattr__(self, "scaled_cells", (*scaled, lcd))
        if counts is not None:
            if set(counts) - set(TREATMENTS):
                raise InvalidValue("counts keyed by unknown treatments")
            counts = {t: counts[t] for t in TREATMENTS if t in counts} or None
            if counts and not independent_counts:
                for t, ct in counts.items():
                    *cells, q = tables[t].scaled_cells  # cell s/q is count c/n when s * n == c * q
                    if any(s * ct.n != c * q for s, c in zip(cells, ct.cells())):
                        normalized = ", ".join(map(str, ct.normalized().cells()))
                        table = ", ".join(map(printable, tables[t].cells()))
                        raise InvalidValue(
                            f"treatment {t.key}: counts normalize to {normalized} but table says {table}"
                        )
        object.__setattr__(self, "counts", counts)

    def table(self, treatment: Treatment) -> JointTable:
        return self.tables[treatment]

    def count(self, treatment: Treatment) -> Optional[CountTable]:
        if self.counts is None:
            return None
        return self.counts.get(treatment)

    def has_full_counts(self) -> bool:
        return self.counts is not None and set(self.counts) == set(TREATMENTS)

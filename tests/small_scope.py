"""Small-scope check: every exactly selective experiment whose cells are multiples of 1/d, and one neighbour of each.

Run from anywhere, with the standard library alone:

    python tests/small_scope.py 6

For each denominator from 1 to the given d it solves every such experiment
and checks the verdict against ``fine_criterion``, each witness (it verifies,
has at most min(9, d) nonzero weights, each a multiple of 1/d) and each
certificate, whose CHSH signed sum it recomputes from the tables. The
neighbour of an experiment moves 1/d from the first nonzero cell of its first
table to the next cell of that table; that breaks marginal selectivity, and
its certificate's marginal delta is recomputed the same way. Per denominator
the script prints the experiments, how many are feasible, and the phase-1
states visited so far, out of the 7,398 that ``TestStateGraph`` finds
reachable. It exits 1 on the first failed check.

pytest does not collect this file;
``tests/test_feasibility.py::TestSmallDenominators`` runs the same checks for
d <= 4, and at d <= 3 also compares each point with the rational oracle.

Most defects show on some small input, so try every one (the small-scope
hypothesis; Andoni, Daniliuc, Khurshid and Marinov 2002).
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from selinf import simplex
from selinf.chsh import compute_gamma
from selinf.feasibility import (
    Certificate,
    FacetViolation,
    FeasibilityResult,
    fine_criterion,
    solve_feasibility,
    verify_witness,
)
from selinf.model import TREATMENTS, ExperimentData, JointTable
from selinf.selectivity import check_marginal_selectivity


def experiment(cells: list[int], d: int) -> ExperimentData:
    """The experiment whose 16 cells, in treatment order, are the given multiples of 1/d."""
    tables = {t: JointTable(*(f"{c}/{d}" for c in cells[4 * k : 4 * k + 4])) for k, t in enumerate(TREATMENTS)}
    return ExperimentData(tables)


def selective_grid(d: int) -> Iterator[list[int]]:
    """The cells, as numerators over d, of every experiment with exactly selective marginals."""
    tables = [cells for cells in itertools.product(range(d + 1), repeat=4) if sum(cells) == d]
    a_plus, b_plus = (lambda c: c[0] + c[1]), (lambda c: c[0] + c[2])  # numerators of Pr(A=+1), Pr(B=+1)
    for ab, ab_, a_b in itertools.product(tables, repeat=3):
        if a_plus(ab) == a_plus(ab_) and b_plus(ab) == b_plus(a_b):
            for a_b_ in tables:
                if a_plus(a_b_) == a_plus(a_b) and b_plus(a_b_) == b_plus(ab_):
                    yield [*ab, *ab_, *a_b, *a_b_]


def neighbour(cells: list[int]) -> list[int]:
    """The cells with one unit moved from the first nonzero cell of the first table to the next cell of that table."""
    k = next(k for k in range(4) if cells[k])
    moved = list(cells)
    moved[k] -= 1
    moved[(k + 1) % 4] += 1
    return moved


def recomputed(cells: list[int], d: int, certificate: Certificate) -> Fraction:
    """The certificate's value from the tables' cells over d: a facet's signed sum of pp - pm - mp + mm over the
    treatments, or a comparison's |Pr(response = +1) under one treatment - under the other|, the two at its level."""
    tables = [cells[4 * k : 4 * k + 4] for k in range(4)]
    if isinstance(certificate, FacetViolation):
        signs = [1 if ch == "+" else -1 for ch in certificate.pattern]
        return Fraction(sum(s * (pp - pm - mp + mm) for s, (pp, pm, mp, mm) in zip(signs, tables)), d)
    level = certificate.fixed_level
    first, second = (k for k, t in enumerate(TREATMENTS) if level in (t.alpha, t.beta))
    plus = (0, 1) if level in ("a", "a'") else (0, 2)  # the cells where the response is +1
    return Fraction(abs(sum(tables[first][c] - tables[second][c] for c in plus)), d)


def checked(cells: list[int], d: int) -> FeasibilityResult:
    """Solve the experiment of these cells over d and check the verdict, the witness or every certificate."""
    data = experiment(cells, d)
    result = solve_feasibility(data, compute_gamma(data), check_marginal_selectivity(data))
    assert result.feasible == fine_criterion(data)
    if result.feasible:
        weights = result.witness.weights
        assert verify_witness(result.witness, data)
        assert sum(w != 0 for w in weights) <= min(9, d)
        assert all((w * d).denominator == 1 for w in weights)
    for certificate in result.all_violations:
        value, bound = (certificate.value, 2) if isinstance(certificate, FacetViolation) else (certificate.delta, 0)
        assert recomputed(cells, d, certificate) == value > bound
    return result


def checked_grid(d: int) -> Iterator[tuple[list[int], FeasibilityResult]]:
    """Check every exactly selective experiment over 1/d and its neighbour; yield each one's cells and result."""
    for cells in selective_grid(d):
        result = checked(cells, d)
        assert all(isinstance(c, FacetViolation) for c in result.all_violations)  # the marginals are exact
        moved = checked(neighbour(cells), d)
        assert not moved.feasible and not isinstance(moved.certificate, FacetViolation)
        yield cells, result


def main() -> int:
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        print("usage: python tests/small_scope.py D   (D >= 1, the largest denominator)", file=sys.stderr)
        return 2
    if not __debug__:  # the checks are assert statements, which -O removes
        print("small_scope: run without -O", file=sys.stderr)
        return 2
    simplex.STEPS.clear()
    print(f"{'d':>3} {'experiments':>12} {'feasible':>9} {'phase-1 states':>15}")
    for d in range(1, int(sys.argv[1]) + 1):
        try:
            results = [result for _, result in checked_grid(d)]
        except AssertionError:
            print(f"d = {d}: a check failed", file=sys.stderr)
            raise
        feasible = sum(result.feasible for result in results)
        print(f"{d:>3} {len(results):>12,} {feasible:>9,} {len(simplex.STEPS):>9,} of 7,398", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

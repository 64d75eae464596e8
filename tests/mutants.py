"""Mutation check: each mutant of the program must make every test it names fail.

Run from anywhere, with the test requirements installed:

    python tests/mutants.py

The script copies the repository to a temporary directory and applies one
mutant at a time there: it replaces one exact source snippet, runs only the
tests the mutant names, in one pytest process, and restores the file. It
prints each mutant with the named tests that still passed, and exits 1 if
any mutant survives. pytest does not collect this file;
``tests/test_packaging.py`` checks that each snippet occurs exactly once in
its file, so the table cannot go stale unnoticed. A change that adds a check
adds its mutants here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIMPLEX = "src/selinf/simplex.py"
STEPS = "tests/test_simplex.py::TestStepCache::"
MASKS = "tests/test_simplex.py::TestCondensedTableau::test_same_point_as_the_full_tableau_under_every_sign_mask"
BATCH = "tests/test_feasibility.py::TestCondensedTableau::test_selective_batch_cases"
DIGEST = "tests/test_feasibility.py::TestCondensedTableau::test_digest_corpus"
ORACLE = "tests/test_feasibility.py::TestIntegerPhaseOne::test_same_points_as_the_rational_tableau_on_selective_batch_cases"

# (name, file, exact source snippet, its replacement, the tests that must fail)
MUTANTS = (
    (
        "the ratio test ties to the last row",
        SIMPLEX, "min(order, key=values.__getitem__)", "min(order[::-1], key=values.__getitem__)",
        (MASKS, BATCH),
    ),
    (
        "Bland enters the largest improving label",
        SIMPLEX, "labels.index(min(improving))", "labels.index(max(improving))",
        (MASKS, BATCH, ORACLE, "tests/test_simplex.py::TestStateGraph::test_size_depth_and_unit_pivots"),
    ),
    (
        "the mask counts zero as negative",
        SIMPLEX, "for i, r in enumerate(rhs) if r < 0)", "for i, r in enumerate(rhs) if r <= 0)",
        (BATCH, DIGEST, STEPS + "test_a_call_runs_the_full_tableau_at_most_once"),
    ),
    (
        "the state key is not injective",
        SIMPLEX, "state = state * (m + 1) + leaving", "state = state * m + leaving",
        (BATCH, DIGEST),
    ),
    (
        "the pivot row's right-hand side is not restored",
        SIMPLEX, "        values[leaving] = lead\n", "",
        (MASKS, BATCH, ORACLE),
    ),
    (
        "the unit-entry check is disabled",
        SIMPLEX, "if any(column[i] != 1 for i in order):", "if False:",
        (STEPS + "test_a_pivot_other_than_1_is_refused_and_each_system_has_its_own_cache",),
    ),
    (
        "a miss caches nothing",
        SIMPLEX, "step = steps[state] = next(tableau)", "step = next(tableau)",
        (
            MASKS, BATCH,
            STEPS + "test_a_call_runs_the_full_tableau_at_most_once",
            STEPS + "test_an_infeasible_run_caches_the_end_of_its_path",
        ),
    ),
    (
        "the nonnegative shortcut tests v > 0",
        SIMPLEX, "if all(v >= 0 for v in reduced_rhs):", "if all(v > 0 for v in reduced_rhs):",
        ("tests/test_feasibility.py::TestIntegerPhaseOne::test_a_nonnegative_basic_solution_with_zeros_runs_no_phase_one",),
    ),
)


def failed_tests(output: str) -> set[str]:
    """The ids that pytest's short summary (-rfE) reports as failed or in error, without parameters."""
    return {m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+?)(?:\[\S*\])?(?: - .*)?$", output, re.M)}


def run() -> list[tuple[str, list[str]]]:
    """Apply each mutant in a copy of the repository; return those with named tests that passed."""
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".bench_work",
        ))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for name, file, snippet, replacement, tests in MUTANTS:
            path = copy / file
            source = path.read_text()
            if source.count(snippet) != 1:
                raise SystemExit(f"{file}: the snippet of {name!r} does not occur exactly once")
            path.write_text(source.replace(snippet, replacement))
            try:
                output = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
                    cwd=copy, env=env, capture_output=True, text=True, timeout=600,
                ).stdout
            except subprocess.TimeoutExpired:  # a test that hangs has not failed
                output = ""
            finally:
                path.write_text(source)
            passed = sorted(set(tests) - failed_tests(output))
            print(f"{'SURVIVED' if passed else 'killed':8}  {name}", flush=True)
            if passed:
                survivors.append((name, passed))
    return survivors


def main() -> int:
    start = time.perf_counter()
    survivors = run()
    for name, passed in survivors:
        print(f"survivor: {name}; still passing: {', '.join(passed)}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

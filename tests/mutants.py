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
SELFTEST_FAILS = "tests/test_cli.py::TestSelftest::test_a_wrong_answer_prints_its_fail_line_and_exits_1"
PARSERS = "tests/test_io.py::TestParsersRaiseOnlyParseError::"
UNWRITABLE = "tests/test_cli.py::TestUnwritableOutput::test_exits_2_on_one_line"
SIMULATE = "src/selinf/simulate.py"
FEASIBILITY = "src/selinf/feasibility.py"
PREDICTED = "tests/test_feasibility.py::TestPredictedTables::"
MODEL_TABLES = "tests/test_simulate.py::TestModelTables::"
VECTOR_CHECK = "tests/test_feasibility.py::TestVerifyWitness::test_the_vector_check_is_the_table_check"
SMALL_GRID = "tests/test_feasibility.py::TestSmallDenominators::test_verdicts_witnesses_and_points"
SAMPLER_UNLOADED = "tests/test_packaging.py::test_importing_the_cli_does_not_load_the_sampler"
COMMAND_MODULES = "tests/test_packaging.py::test_each_command_loads_only_the_modules_it_runs"
PACKED = "tests/test_simulate.py::TestPackedSampler::"
WRITER = "tests/test_io.py::TestJsonWriter::"
NORMALIZE = "tests/test_cell_vector.py::TestCountTablesNormalize::"
HOLD = "tests/test_cell_vector.py::TestReportsHoldIntegers::"
TEXT = "tests/test_io.py::TestFractionText::"

# (name, file, exact source snippet, its replacement, the tests that must fail)
MUTANTS = (
    (
        "the ratio test ties to the last row",
        SIMPLEX, "min(order, key=values.__getitem__)", "min(order[::-1], key=values.__getitem__)",
        (MASKS, BATCH, SMALL_GRID),
    ),
    (
        "Bland enters the largest improving label",
        SIMPLEX, "labels.index(min(improving))", "labels.index(max(improving))",
        (MASKS, BATCH, ORACLE, SMALL_GRID, "tests/test_simplex.py::TestStateGraph::test_size_depth_and_unit_pivots"),
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
        (STEPS + "test_a_pivot_other_than_1_is_refused",),
    ),
    (
        "a miss caches nothing",
        SIMPLEX, "step = STEPS[state] = next(tableau)", "step = next(tableau)",
        (
            MASKS, BATCH,
            STEPS + "test_a_call_runs_the_full_tableau_at_most_once",
            STEPS + "test_an_infeasible_run_caches_the_end_of_its_path",
        ),
    ),
    (
        # phase 1's y = L x is in lowest terms already, so a gcd there would be a no-op: hold it over 2 L instead
        "the witness is not held in lowest terms",
        FEASIBILITY, "._hold(*found, data.scaled_cells[16])", "._hold(*(2 * v for v in found), 2 * data.scaled_cells[16])",
        (HOLD + "test_records_are_the_records_their_fractions_build",),
    ),
    (
        "the witness's weights need not sum to 1",
        FEASIBILITY, "if sum(numerators) != lcd:", "if False:",
        (
            "tests/test_feasibility.py::TestHiddenStateDistribution::test_must_sum_to_one",
            "tests/test_feasibility.py::TestHiddenStateDistribution::test_sums_too_long_to_print_are_named_not_printed",
        ),
    ),
    (
        "gamma's argmax skips the last pattern",
        "src/selinf/chsh.py", "top = max(sums)", "top = max(sums[:7])",
        ("tests/test_integer_route.py::test_chsh_report_matches_the_fraction_route",),
    ),
    (
        "a facet summing to exactly 2 is violated",
        FEASIBILITY, "if v > 2 * lcd]", "if v >= 2 * lcd]",
        ("tests/test_feasibility.py::TestFineEquivalence::test_the_facets_are_the_sums_above_two",),
    ),
    (
        "the formatter's gcd takes the numerator's sign",
        "src/selinf/model.py", "g = math.gcd(p, q)\n", "g = math.gcd(p, q) * (1 if p >= 0 else -1)\n",
        (TEXT + "test_is_the_fraction_s_str",),
    ),
    (
        "the writer swaps true and false",
        "src/selinf/io.py", '"true" if value else "false"', '"false" if value else "true"',
        (WRITER + "test_scalars_and_empty_containers", WRITER + "test_floats_booleans_and_null"),
    ),
    (
        "the contamination keeps the push-forward at full weight",
        SIMULATE, "(d - e) * c", "d * c",
        (
            MODEL_TABLES + "test_contamination_is_affine_in_eta",
            MODEL_TABLES + "test_tables_equal_the_fraction_route_push_forward_and_mix",
        ),
    ),
    (
        "every forced pair lands in the first treatment's cells",
        SIMULATE, "forced = {4 * t.index + CELLS.index(pair)", "forced = {CELLS.index(pair)",
        (
            MODEL_TABLES + "test_contamination_is_affine_in_eta",
            MODEL_TABLES + "test_tables_equal_the_fraction_route_push_forward_and_mix",
        ),
    ),
    (
        "the thresholds are floored",
        SIMULATE, "-((-cum << 53) // lcd)", "(cum << 53) // lcd",
        (MODEL_TABLES + "test_thresholds_are_the_ceilings_of_the_contract",),
    ),
    (
        "the witness check reads half the cell vector",
        FEASIBILITY, "for c, s in zip(pushed, scaled))", "for c, s in zip(pushed[:8], scaled[:8]))",
        (VECTOR_CHECK,),
    ),
    (
        "the witness check multiplies by the wrong denominator",
        FEASIBILITY, "c * scaled[16] == s * pushed[16]", "c * pushed[16] == s * scaled[16]",
        ("tests/test_feasibility.py::TestVerifyWitness::test_uniform_pair", VECTOR_CHECK),
    ),
    (
        "the push-forward reads the weights over twice their denominator",
        FEASIBILITY, "for states in _CELL_STATES), weights[16])", "for states in _CELL_STATES), 2 * weights[16])",
        (
            PREDICTED + "test_equals_the_fraction_route_push_forward",
            PREDICTED + "test_uniform_gives_independent_fair_coins", VECTOR_CHECK,
        ),
    ),
    (
        "the cell table reads A's sign at the wrong level",
        FEASIBILITY, "if state[i] + state[2 + j] == a + b", "if state[1 - i] + state[2 + j] == a + b",
        (
            "tests/test_feasibility.py::TestHiddenStates::test_response_reads_own_factor_only",
            PREDICTED + "test_equals_the_fraction_route_push_forward",
            MODEL_TABLES + "test_tables_equal_the_fraction_route_push_forward_and_mix",
        ),
    ),
    (
        "the mix keeps L instead of d L",
        SIMULATE, "], d * lcd", "], lcd",
        (
            MODEL_TABLES + "test_contamination_is_affine_in_eta",
            MODEL_TABLES + "test_tables_equal_the_fraction_route_push_forward_and_mix",
        ),
    ),
    (
        "help is written through argparse's writer, which drops a failed write",
        "src/selinf/cli.py", "(file or sys.stdout).write(self.format_help())",
        "self._print_message(self.format_help(), file or sys.stdout)",
        (UNWRITABLE,),
    ),
    (
        "the stdout-write clause catches nothing",
        "src/selinf/cli.py", "except OSError as exc:  # reading", "except ArithmeticError as exc:  # reading",
        (UNWRITABLE,),
    ),
    (
        "stdout is flushed only at exit",
        "src/selinf/cli.py", "        sys.stdout.flush()\n", "",
        (UNWRITABLE,),
    ),
    (
        "fd 1 is left on the failed output",
        "src/selinf/cli.py", "os.dup2(null.fileno(), 1)", "pass",
        (UNWRITABLE,),
    ),
    (
        "a failed selftest is not counted",
        "src/selinf/cli.py", "failures += 1", "failures += 0",
        (SELFTEST_FAILS,),
    ),
    (
        "the selftest does not check table2's Gamma",
        "src/selinf/cli.py", "if report.chsh.gamma != 4:", "if False:",
        (SELFTEST_FAILS,),
    ),
    (
        "Gamma = 2 is not classical",
        "src/selinf/chsh.py", "if p <= 2 * q:", "if p < 2 * q:",
        ("tests/test_chsh.py::TestClassification::test_exact_boundary_at_two",),
    ),
    (
        "witness --json keeps all_violations",
        "src/selinf/cli.py", 'if k != "all_violations" and v is not None', "if v is not None",
        ("tests/test_cli.py::TestWitnessMatchesAnalyze::test_json_is_the_reports_verdict_and_witness_or_certificate",),
    ),
    (
        "the delta cross-multiplies the wrong terms",
        "src/selinf/selectivity.py", "abs(a1 * b2 - a2 * b1)", "abs(a1 * b1 - a2 * b2)",
        (
            "tests/test_selectivity.py::TestExactCheck::test_delta_invariant_under_recoding",
            "tests/test_selectivity.py::TestExactCheck::test_zero_correlation_tables_still_violate",
        ),
    ),
    (
        "the count check cross-multiplies the wrong terms",
        "src/selinf/model.py", "s * ct.n != c * lcd", "s * lcd != c * ct.n",
        (
            "tests/test_acceptance.py::test_criterion_7_statistical_rejection_at_n81",
            "tests/test_io.py::TestParseExperiment::test_count_blocks",
        ),
    ),
    (
        "alpha_sig = 0 is accepted",
        "src/selinf/selectivity.py", "if not 0 < alpha_sig < 1:", "if not 0 <= alpha_sig < 1:",
        ("tests/test_selectivity.py::TestZTest::test_alpha_out_of_range_rejected",),
    ),
    (
        # JointTable._hold puts a table in lowest terms whatever pairs it is given, so only the reader's result shows it
        "plain strings are not reduced to lowest terms",
        "src/selinf/model.py", "g = math.gcd(p, q) if q else 0", "g = 1 if q else 0",
        ("tests/test_model.py::TestRationalRoutes::test_plain_strings_read_as_lowest_terms_pairs",),
    ),
    (
        "the 10**2000 cap rejects data at the cap",
        "src/selinf/io.py", "if max(data.scaled_cells) > MAX_COMMON_DENOMINATOR:",
        "if max(data.scaled_cells) >= MAX_COMMON_DENOMINATOR:",
        ("tests/test_io.py::TestCommonDenominatorCap::test_parse_and_analyze_apply_the_same_cap",),
    ),
    (
        "parse_experiment lets the data's InvalidValue through",
        "src/selinf/io.py",
        "        return _check_common_denominator(data)\n    except InvalidValue as exc:\n",
        "        return _check_common_denominator(data)\n    except ParseError as exc:\n",
        (PARSERS + "test_experiment_documents", "tests/test_io.py::TestParseExperiment::test_nested_counts_must_agree"),
    ),
    (
        "equality ignores the last cell and L",
        "src/selinf/model.py", "getattr(self, name) == getattr(other, name)",
        "getattr(self, name)[:3] == getattr(other, name)[:3]",
        ("tests/test_cell_vector.py::TestTablesHoldIntegers::test_equality_reads_the_integers_and_agrees_with_the_cells",),
    ),
    (
        "data equality ignores counts",
        "src/selinf/model.py", '__slots__ = _canonical = ("scaled_cells", "counts", "labels", "independent_counts")',
        '__slots__ = ("scaled_cells", "counts", "labels", "independent_counts")\n'
        '    _canonical = ("scaled_cells", "labels", "independent_counts")',
        ("tests/test_cell_vector.py::test_data_equality_reads_the_four_slots_and_builds_no_table",),
    ),
    (
        "parse_model lets the model's InvalidValue through",
        SIMULATE,
        "        return Model(hidden=hidden, eta=eta, cross_map=cross)\n    except InvalidValue as exc:\n",
        "        return Model(hidden=hidden, eta=eta, cross_map=cross)\n    except ParseError as exc:\n",
        (PARSERS + "test_model_documents", "tests/test_io.py::TestParseModel::test_eta_without_cross_map"),
    ),
    (
        "the printed fractions are not reduced",
        "src/selinf/model.py", 'f"{p // g}/{q // g}"', 'f"{p}/{q}"',
        ("tests/test_io.py::TestRoundTrip::test_cells_print_as_their_fractions_print", TEXT + "test_is_the_fraction_s_str"),
    ),
    (
        "cli imports the sampler at load",
        "src/selinf/cli.py", "from .model import echo\n", "from .model import echo\nfrom .simulate import sample_counts\n",
        (SAMPLER_UNLOADED, COMMAND_MODULES),
    ),
    (
        "io imports the sampler at load",
        "src/selinf/io.py", "_LAZY = {", "from .simulate import Model\n_LAZY = {",
        (SAMPLER_UNLOADED, COMMAND_MODULES),
    ),
    (
        "the package imports the sampler eagerly",
        "src/selinf/__init__.py", '__version__ = "0.1.0"\n', 'from .simulate import Model\n\n__version__ = "0.1.0"\n',
        (SAMPLER_UNLOADED, COMMAND_MODULES),
    ),
    (
        "cli imports the text report at load",
        "src/selinf/cli.py", "from .model import echo\n", "from .model import echo\nfrom .report import witness_lines\n",
        (COMMAND_MODULES,),
    ),
    (
        "io imports the text report at load",
        "src/selinf/io.py", "_LAZY = {", "from .report import render_report_text\n_LAZY = {",
        (COMMAND_MODULES,),
    ),
    (
        "the package imports the text report eagerly",
        "src/selinf/__init__.py", '__version__ = "0.1.0"\n', 'from .report import witness_lines\n\n__version__ = "0.1.0"\n',
        (COMMAND_MODULES,),
    ),
    (
        "a top-byte tie is decided on byte 5",
        SIMULATE, "b6 = lanes[16 * j + 6]", "b6 = lanes[16 * j + 5]",
        (PACKED + "test_tallies_match_per_draw_reference", PACKED + "test_tallies_match_per_draw_reference_for_any_seed"),
    ),
    (
        "a byte-6 tie counts as reached",
        SIMULATE, "if b6 > t6:", "if b6 >= t6:",
        (PACKED + "test_tallies_match_per_draw_reference", PACKED + "test_tallies_match_per_draw_reference_for_any_seed"),
    ),
    (
        "the writer escapes with encode_basestring, so non-ASCII is written raw",
        "src/selinf/io.py", "        return encode_basestring_ascii(value)\n",
        "        return json.encoder.encode_basestring(value)\n",
        (WRITER + "test_generated_experiments_and_their_reports", WRITER + "test_scalars_and_empty_containers"),
    ),
    (
        "the writer indents a nested container at its parent's depth",
        "src/selinf/io.py", "{encode_basestring_ascii(key)}: {_json(item, inner)}",
        "{encode_basestring_ascii(key)}: {_json(item, newline)}",
        (
            WRITER + "test_every_corpus_document_and_report_with_and_without_its_witness",
            WRITER + "test_generated_experiments_and_their_reports",
            "tests/test_cli.py::TestWitnessMatchesAnalyze::test_json_output_is_the_text_json_dumps_gives_at_indent_2",
        ),
    ),
    (
        # gcd(*cells) alone is equivalent, since the cells sum to L: leaving L out leaves the last cell, which
        # L fixes, unread
        "a table's gcd leaves L out",
        "src/selinf/model.py", "g = math.gcd(*scaled)", "g = math.gcd(*scaled[:3])",
        (NORMALIZE + "test_every_count_table_of_at_most_ten_observations", NORMALIZE + "test_counts_up_to_2_to_the_53"),
    ),
    (
        "a table read from the data keeps the data's L",
        "src/selinf/model.py", "JointTable.__new__(JointTable)._hold(*cells[k : k + 4], cells[16])",
        '(lambda table: object.__setattr__(table, "scaled_cells", (*cells[k : k + 4], cells[16])) or table)'
        "(JointTable.__new__(JointTable))",
        (
            "tests/test_cell_vector.py::test_the_cells_are_held_once_and_each_table_is_built_when_read",
            "tests/test_cell_vector.py::test_every_route_stores_each_table_over_its_own_common_denominator",
        ),
    ),
    (
        "the renormalization window is 1/99 wide",
        "src/selinf/io.py", "abs(total - lcd) * 100 <= lcd", "abs(total - lcd) * 99 <= lcd",
        ("tests/test_io.py::TestPinnedCellMessages::test_block",),
    ),
    (
        "a renormalized block keeps its cells' L",
        "src/selinf/io.py", "return (*cells, total)", "return (*cells, lcd)",
        (
            "tests/test_io.py::TestParseExperiment::test_sum_not_one_without_flag",
            "tests/test_io.py::TestPinnedCellMessages::test_block",
        ),
    ),
    (
        "the data's gcd is skipped",
        "src/selinf/model.py", "g = math.gcd(lcd, *scaled)", "g = 1",
        (
            VECTOR_CHECK,
            "tests/test_cell_vector.py::test_every_route_stores_the_cells_over_their_common_denominator",
            "tests/test_io.py::TestReportJson::test_schema_valid_documents_the_program_never_writes_are_rejected",
            "tests/test_io.py::TestReportJson::test_every_corpus_report_round_trips_with_and_without_its_witness",
        ),
    ),
    (
        "serialize reads another treatment's cells",
        "src/selinf/io.py", "cells[4 * t.index :]", "cells[4 * (t.index ^ 1) :]",
        (
            "tests/test_io.py::TestRoundTrip::test_fixtures_round_trip",
            "tests/test_io.py::TestRoundTrip::test_random_data_round_trips",
            "tests/test_io.py::TestRoundTrip::test_sampled_counts_round_trip",
        ),
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

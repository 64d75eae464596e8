"""Command-line behavior: exit codes, output formats, fixtures, simulation."""

import argparse
import json
import os
import random
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

import selinf
import selinf.cli
from selinf.cli import load_fixture_text, run_cli
from selinf.feasibility import predicted_tables
from selinf.io import parse_experiment, serialize_experiment
from selinf.report import report_from_json_dict

from conftest import (
    large_denominator_documents,
    oversized_model_documents,
    random_any_data,
    random_hidden_distribution,
    random_ms_data,
)
from test_io import MODEL_DOCUMENTS, experiment_documents

EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_ERROR = 0, 1, 2


@pytest.fixture
def fixture_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(load_fixture_text(name))
        return str(path)

    return write


@pytest.fixture
def uniform_path(tmp_path):
    block = {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"}
    doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}}
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_extremal_box_reports_and_exits_infeasible(self, fixture_path, capsys):
        code = run_cli(["analyze", fixture_path("table2")])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "Gamma = 4" in out
        assert "satisfied" in out
        assert "INFEASIBLE" in out

    def test_solver_disagreeing_with_fine_exits_with_error_code(self, uniform_path, monkeypatch, capsys):
        monkeypatch.setattr("selinf.feasibility.feasible_point", lambda rhs: None)
        code = run_cli(["analyze", uniform_path])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: solver found no mixture") and err.count("\n") == 1

    def test_uniform_is_feasible_with_witness(self, uniform_path, capsys):
        code = run_cli(["analyze", uniform_path, "--witness"])
        out = capsys.readouterr().out
        assert code == EXIT_FEASIBLE
        assert "FEASIBLE" in out
        assert "witness" in out

    def test_observed_experiment_statistical_rejection(self, fixture_path, capsys):
        code = run_cli(["analyze", fixture_path("table3"), "--sig", "0.05"])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "reject" in out

    def test_json_flag_emits_schema_valid_report(self, fixture_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        code = run_cli(["analyze", fixture_path("table1"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        schema = json.loads(
            (resources.files("selinf") / "schema" / "analysis_report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert code == EXIT_INFEASIBLE
        assert doc["chsh"]["gamma"] == "0"

    @pytest.mark.parametrize("name", ["table1", "table3"])  # without counts, with counts
    @pytest.mark.parametrize("sig", ["5", "0", "1", "-0.05", "nan"])
    def test_significance_outside_zero_one_is_an_input_error(self, fixture_path, capsys, name, sig):
        code = run_cli(["analyze", fixture_path(name), "--sig", sig])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: alpha_sig must be in (0, 1), got {float(sig)}\n"

    def test_missing_file(self, capsys):
        code = run_cli(["analyze", "/nonexistent/experiment.json"])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert run_cli(["analyze", str(path)]) == EXIT_ERROR

    def test_sum_not_one_is_an_input_error(self, tmp_path, capsys):
        block = {"pp": ".778", "pm": ".086", "mp": ".086", "mm": ".049"}
        doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}}
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze", str(path)]) == EXIT_ERROR

    def test_conflicting_counts_print_cells_as_fractions(self, tmp_path, capsys):
        block = {"pp": "1/2", "pm": "0", "mp": "0", "mm": "1/2", "counts": {"pp": 3, "pm": 0, "mp": 0, "mm": 1}}
        doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}}
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: treatment a,b: counts normalize to 3/4, 0, 0, 1/4 but table says 1/2, 0, 0, 1/2\n"
        )

    def test_exit_code_tracks_feasibility_not_statistics(self, tmp_path, capsys):
        # marginally violated but with tiny counts: no statistical rejection,
        # infeasible nonetheless; the exit code follows the verdict
        doc = {
            "treatments": {
                "a,b": {"pp": 2, "pm": 1, "mp": 1, "mm": 1},
                "a,b'": {"pp": 1, "pm": 1, "mp": 1, "mm": 2},
                "a',b": {"pp": 1, "pm": 1, "mp": 2, "mm": 1},
                "a',b'": {"pp": 1, "pm": 2, "mp": 1, "mm": 1},
            }
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "retain" in out  # all four tests keep the null at n = 5

    def test_z_test_whose_pooled_variance_underflows(self, tmp_path, capsys):
        # A at a compares Pr(A=+1) = 10**-400 with 0 at n = 5 each: the float
        # pooled variance underflows to 0.0, and z comes from the exact z^2
        big = 10**400
        counts = {"pp": 1, "pm": 1, "mp": 1, "mm": 2}
        half_rest = f"{big - 1}/{2 * big}"
        doc = {
            "treatments": {
                "a,b": {"pp": f"1/{big}", "pm": "0", "mp": half_rest, "mm": half_rest, "counts": counts},
                "a,b'": {"pp": "0", "pm": "0", "mp": "1/2", "mm": "1/2", "counts": counts},
                "a',b": {"pp": 1, "pm": 1, "mp": 2, "mm": 1},
                "a',b'": {"pp": 1, "pm": 1, "mp": 2, "mm": 1},
            },
            "independent_counts": True,
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze", "--json", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_INFEASIBLE, "")
        test = json.loads(captured.out)["statistical_tests"][0]
        assert (test["comparison"]["fixed_level"], test["degenerate"]) == ("a", False)
        # sqrt(50 / (10**401 - 5)), from a 60-digit Decimal computation
        assert (test["z"], test["p_value"], test["reject"]) == (2.2360679774997897e-200, 1.0, False)
        assert run_cli(["analyze", str(path)]) == EXIT_INFEASIBLE
        assert "A at a : z = +0.000  p = 1  -> retain" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        assert run_cli([]) == EXIT_ERROR

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == EXIT_ERROR

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["help", "analyze-help"])
    def test_help_is_the_text_argparse_writes(self, capsys, monkeypatch, argv):
        assert run_cli(argv) == 0
        ours = capsys.readouterr()
        monkeypatch.setattr(selinf.cli._Parser, "print_help", argparse.ArgumentParser.print_help)
        assert run_cli(argv) == 0
        assert capsys.readouterr() == ours and ours.out.startswith("usage: selinf") and ours.err == ""

    def test_simulate_requires_arguments(self):
        assert run_cli(["simulate"]) == EXIT_ERROR


class TestWitnessCommand:
    def test_feasible_prints_witness(self, uniform_path, capsys):
        code = run_cli(["witness", uniform_path])
        out = capsys.readouterr().out
        assert code == EXIT_FEASIBLE
        assert "FEASIBLE" in out

    def test_infeasible_prints_certificate(self, fixture_path, capsys):
        code = run_cli(["witness", fixture_path("table2")])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "certificate" in out
        assert "+++-" in out

    def test_json_witness_is_a_distribution(self, uniform_path, capsys):
        code = run_cli(["witness", uniform_path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_FEASIBLE
        assert doc["verdict"] == "feasible"
        from fractions import Fraction

        total = sum(Fraction(w) for w in doc["witness"].values())
        assert total == 1


def witness_documents():
    """The goldens, then seeded push-forwards (feasible), marginally selective tables
    and unconstrained ones (mostly infeasible)."""
    docs = {name: load_fixture_text(name) for name in ("table1", "table2", "table3")}
    rng = random.Random(302)
    for i in range(6):
        docs[f"push-forward-{i}"] = serialize_experiment(predicted_tables(random_hidden_distribution(rng)))
        docs[f"selective-{i}"] = serialize_experiment(random_ms_data(rng))
        docs[f"unconstrained-{i}"] = serialize_experiment(random_any_data(rng))
    return docs


class TestWitnessMatchesAnalyze:
    def test_json_is_the_reports_verdict_and_witness_or_certificate(self, tmp_path, capsys):
        codes = set()
        for name, text in witness_documents().items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code = run_cli(["witness", str(path), "--json"])
            witness = json.loads(capsys.readouterr().out)
            assert run_cli(["analyze", str(path), "--json", "--witness"]) == code, name
            feasibility = json.loads(capsys.readouterr().out)["feasibility"]
            expected = {k: v for k, v in feasibility.items() if k != "all_violations" and v is not None}
            assert list(witness.items()) == list(expected.items()), name  # in the same key order
            assert list(witness) == ["verdict", "witness" if code == EXIT_FEASIBLE else "certificate"], name
            codes.add(code)
        assert codes == {EXIT_FEASIBLE, EXIT_INFEASIBLE}

    def test_json_output_is_the_text_json_dumps_gives_at_indent_2(self, tmp_path, capsys):
        for name, text in witness_documents().items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for command, *flags in (["witness", "--json"], ["analyze", "--json"], ["analyze", "--json", "--witness"]):
                run_cli([command, str(path), *flags])
                out = capsys.readouterr().out
                assert out == json.dumps(json.loads(out), indent=2) + "\n", (name, command, flags)


class TestSimulateCommand:
    def model_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden": {"++++": "1/2", "----": "1/2"}}))
        return str(path)

    def test_writes_parseable_experiment(self, tmp_path, capsys):
        model = self.model_path(tmp_path)
        out_file = tmp_path / "sampled.json"
        code = run_cli(
            ["simulate", "--model", model, "--n", "81", "--seed", "7", "--out", str(out_file)]
        )
        assert code == 0
        data = parse_experiment(out_file.read_text())
        assert data.has_full_counts()
        assert all(c.n == 81 for c in data.counts.values())

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        model = self.model_path(tmp_path)
        f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_cli(["simulate", "--model", model, "--n", "50", "--seed", "99", "--out", str(f1)])
        run_cli(["simulate", "--model", model, "--n", "50", "--seed", "99", "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_stdout_when_no_out_file(self, tmp_path, capsys):
        model = self.model_path(tmp_path)
        code = run_cli(["simulate", "--model", model, "--n", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_experiment(out).has_full_counts()

    def test_sampled_selective_data_analyzes_feasible(self, tmp_path, capsys):
        # a selective model's finite sample is itself a valid frequency table;
        # with enough draws of this particular model it stays representable
        model = self.model_path(tmp_path)
        out_file = tmp_path / "sampled.json"
        run_cli(["simulate", "--model", model, "--n", "400", "--seed", "11", "--out", str(out_file)])
        capsys.readouterr()
        code = run_cli(["analyze", str(out_file)])
        capsys.readouterr()
        assert code in (EXIT_FEASIBLE, EXIT_INFEASIBLE)

    @pytest.mark.parametrize("target", ["directory", "missing/parent/sampled.json"])
    def test_unwritable_out_path_exits_with_one_error_line(self, tmp_path, capsys, target):
        model = self.model_path(tmp_path)
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / target)
        code = run_cli(["simulate", "--model", model, "--n", "10", "--seed", "1", "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "unexpected" not in err

    def test_bad_model_file(self, tmp_path):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps({"hidden": {"++++": "0.9"}}))
        assert run_cli(["simulate", "--model", str(path), "--n", "5", "--seed", "1"]) == EXIT_ERROR

    @pytest.mark.parametrize("name", ["hidden-denominators", "hidden-numerator", "eta-numerator"])
    def test_oversized_model_exits_with_one_error_line(self, tmp_path, capsys, name):
        path = tmp_path / "model.json"
        path.write_text(oversized_model_documents()[name])
        code = run_cli(["simulate", "--model", str(path), "--n", "10", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected" not in err and "exceeds 10**2000" in err

    def test_a_model_with_no_hidden_states_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden": {}}))
        assert run_cli(["simulate", "--model", str(path), "--n", "5", "--seed", "1"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: bad hidden-state weights: weights sum to 0, expected exactly 1\n"

    @settings(
        derandomize=True, database=None, max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(MODEL_DOCUMENTS)
    def test_every_model_document_simulates_or_gives_one_error_line(self, tmp_path, capsys, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["simulate", "--model", str(path), "--n", "5", "--seed", "1"])
        out, err = capsys.readouterr()
        if code == EXIT_FEASIBLE:
            assert err == "" and parse_experiment(out).has_full_counts()
        else:
            assert code == EXIT_ERROR and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "unexpected" not in err

    def test_sample_size_beyond_2_to_the_53_is_rejected_before_drawing(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr("selinf.simulate.sample_counts", no_draws)
        model = self.model_path(tmp_path)
        code = run_cli(["simulate", "--model", model, "--n", str(2**53 + 1), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == f"error: n_per_treatment must be an integer from 1 to 2**53, got {2**53 + 1}\n"


class TestSelftest:
    def test_passes_and_prints_one_line_per_fixture(self, capsys):
        code = run_cli(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 3
        assert all(ln.startswith("PASS") for ln in lines)
        assert "table3" in out

    def test_a_wrong_answer_prints_its_fail_line_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("selinf.cli.load_fixture_text", lambda name: load_fixture_text(name.replace("2", "1")))
        code = run_cli(["selftest"])
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().out.splitlines() == [
            "PASS table1: Gamma = 0.000, marginal selectivity violated, infeasible",
            "FAIL table2: Gamma = 0, expected 4; argmax should be exactly +++-; marginal selectivity should hold exactly;"
            " certificate should be a CHSH facet",
            "PASS table3: Gamma = 2.422, marginal selectivity violated, infeasible",
        ]


def run_python(*args, stdout=subprocess.PIPE, **variables):
    """Run ``python <args>`` with the package under test importable; ``variables`` set the environment, None unsets."""
    env = dict(os.environ)
    src = str(Path(selinf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
    )


def run_module(*args, **kwargs):
    """Run ``python -m <args>``."""
    return run_python("-m", *args, **kwargs)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["selinf", "selinf.cli"])
    def test_selftest_runs(self, module):
        proc = run_module(module, "selftest")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        assert all(ln.startswith("PASS") for ln in lines)


class TestUnexpectedFailure:
    """A failure outside the package's own errors exits 2, never 1 ("infeasible")."""

    def test_run_cli_exits_with_error_code(self, uniform_path, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("selinf.cli._cmd_analyze", crash)
        code = run_cli(["analyze", uniform_path])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: unexpected RuntimeError: boom\n"

    def test_process_exits_with_error_code(self, uniform_path):
        script = (
            "import selinf.cli as cli\n"
            "def crash(args):\n"
            "    raise RuntimeError('boom')\n"
            "cli._cmd_analyze = crash\n"
            "cli.main()\n"
        )
        proc = run_python("-c", script, "analyze", uniform_path)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr == "error: unexpected RuntimeError: boom\n"


class TestExitCodeContract:
    """Any experiment document exits 0 or 1 with a report the reader accepts, or 2 with one error line."""

    def test_analyze_on_experiment_documents(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((resources.files("selinf") / "schema" / "analysis_report.schema.json").read_text())
        validator, path, codes = jsonschema.Draft7Validator(schema), tmp_path / "doc.json", Counter()

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(experiment_documents())
        def check(doc):
            path.write_text(json.dumps(doc))
            code = run_cli(["analyze", str(path), "--json", "--witness"])
            out, err = capsys.readouterr()
            codes[code] += 1
            if code == EXIT_ERROR:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                assert "unexpected" not in err
            else:
                report = json.loads(out)
                validator.validate(report)
                assert err == "" and report_from_json_dict(report).feasibility.feasible == (code == EXIT_FEASIBLE)

        check()
        assert set(codes) == {EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_ERROR}


class TestUnwritableOutput:
    """Standard output that is full or closed exits 2 on one error line, whether or not it is buffered.

    Help output goes the same way: argparse's own writer would drop the error and exit 0, or 120 at exit."""

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("target", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize(
        "args", [("analyze", "table2"), ("--help",), ("analyze", "--help")], ids=["analyze", "help", "analyze-help"]
    )
    def test_exits_2_on_one_line(self, fixture_path, target, unbuffered, args):
        if target == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read, stdout = os.pipe()
            os.close(read)  # before the child starts, so that its first write fails
        try:
            argv = [fixture_path(arg) if arg == "table2" else arg for arg in args]
            proc = run_module("selinf", *argv, stdout=stdout, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(stdout)
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_ERROR
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
        assert "unexpected" not in lines[0]


class TestMalformedOptionalSections:
    """Flags that are not JSON booleans and label sections that are not objects exit 2 on one line."""

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"labels": {"factors": ["alpha"]}}, "labels.factors"),
            ({"labels": {"levels": ["a"]}}, "labels.levels"),
            ({"renormalize": "false"}, '"renormalize"'),
            ({"independent_counts": "false"}, '"independent_counts"'),
        ],
    )
    def test_exits_with_one_error_line_naming_the_key(self, tmp_path, capsys, extra, named):
        block = {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"}
        doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}, **extra}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected" not in err and named in err


class TestCellReader:
    """How a cell string reads, pinned through the command line: its message, or a table equal to the uniform one."""

    @staticmethod
    def analyze_with_pp(tmp_path, capsys, pp):
        block = {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"}
        doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}}
        doc["treatments"]["a,b"]["pp"] = pp
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "pp, shown",
        [
            ("1/0", "'1/0'"),
            ("0/0", "'0/0'"),
            ("nan", "'nan'"),
            ("inf", "'inf'"),
            ("1" * 5000 + "/4", "'" + "1" * 59 + "... (5,004 characters)"),
            ("1/" + "4" * 5000, "'1/" + "4" * 57 + "... (5,004 characters)"),
        ],
        ids=["zero-denominator", "zero-over-zero", "nan", "inf", "long-numerator", "long-denominator"],
    )
    def test_an_unreadable_cell_is_one_error_line(self, tmp_path, capsys, pp, shown):
        assert self.analyze_with_pp(tmp_path, capsys, pp) == (
            EXIT_ERROR, f"error: treatment a,b: cell pp: cannot interpret {shown} as a rational\n"
        )

    @pytest.mark.parametrize(
        "pp, message",
        [("-1/4", "cell pp = '-1/4' outside [0, 1]"), ("1e999999", "cell pp: decimal exponent beyond +-1000")],
    )
    def test_a_negative_cell_or_a_huge_exponent_is_one_error_line(self, tmp_path, capsys, pp, message):
        assert self.analyze_with_pp(tmp_path, capsys, pp) == (EXIT_ERROR, f"error: treatment a,b: {message}\n")

    @pytest.mark.parametrize("pp", [" 1/4", "+1/4", "1_0/40", "\u0661/4", "25e-2"])
    def test_forms_that_fraction_reads_are_accepted(self, tmp_path, capsys, pp):
        assert self.analyze_with_pp(tmp_path, capsys, pp) == (EXIT_FEASIBLE, "")


class TestOversizedInput:
    """Inputs beyond the parse caps are bad cells, reported on one line with exit 2."""

    @pytest.mark.parametrize(
        "block, renormalize",
        [
            ({"pp": "1e-5000", "pm": "0", "mp": "0", "mm": "1"}, True),
            ({"pp": 10**400, "pm": 1, "mp": 1, "mm": 1}, False),
        ],
    )
    def test_exits_with_error_code_naming_the_treatment(self, tmp_path, capsys, block, renormalize):
        other = {"pp": "1", "pm": "0", "mp": "0", "mm": "0"}
        doc = {
            "treatments": {"a,b": block, "a,b'": other, "a',b": other, "a',b'": other},
            "renormalize": renormalize,
        }
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: treatment a,b: ") and err.count("\n") == 1
        assert "unexpected" not in err

    @pytest.mark.parametrize(
        "tolerance",
        ["0." + "0" * 4000 + "1e-1000", "9" * 4000 + "e1000", "-" + "9" * 4000 + "e1000"],
        ids=["long-denominator", "long-numerator", "long-negative-numerator"],
    )
    def test_oversized_tolerance_exits_with_one_error_line(self, fixture_path, capsys, tolerance):
        code = run_cli(["analyze", fixture_path("table1"), f"--tolerance={tolerance}"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: tolerance: numerator or denominator exceeds 10**2000\n"

    def test_tolerance_at_the_cap_is_accepted(self, fixture_path, capsys):
        tolerance = "1/" + "1" + "0" * 2000
        assert run_cli(["analyze", fixture_path("table1"), f"--tolerance={tolerance}"]) == EXIT_INFEASIBLE
        assert f"(tolerance {tolerance})" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["renormalized", "combined"])
    def test_large_common_denominators_exit_with_one_error_line(self, tmp_path, capsys, name):
        path = tmp_path / "large.json"
        path.write_text(large_denominator_documents()[name])
        code = run_cli(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected" not in err and "least common denominator" in err


class TestLongValuesInMessages:
    """An error line echoes at most the start of a raw input value, so its size is bounded."""

    def run(self, capsys, argv):
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
        assert "unexpected" not in err
        return err

    @pytest.mark.parametrize("where", ["cell", "key", "count"])
    def test_long_value_in_a_file(self, tmp_path, capsys, where):
        value = "x" * 100_000
        block = {"pp": ".25", "pm": ".25", "mp": ".25", "mm": ".25"}
        doc = {"treatments": {k: dict(block) for k in ("a,b", "a,b'", "a',b", "a',b'")}}
        if where == "cell":
            doc["treatments"]["a,b"]["pp"] = value
        elif where == "key":
            doc[value] = 1
        else:
            doc["treatments"]["a,b"]["counts"] = {"pp": value, "pm": 1, "mp": 1, "mm": 1}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        err = self.run(capsys, ["analyze", str(path)])
        assert "'xxxxx" in err and "xxx... (100,00" in err

    def test_long_tolerance(self, fixture_path, capsys):
        err = self.run(capsys, ["analyze", fixture_path("table1"), "--tolerance", "y" * 10_000])
        assert err.startswith("error: cannot interpret 'yyyyy") and "(10,002 characters) as a rational" in err

    @pytest.mark.parametrize("option", ["--n", "--seed"])
    def test_long_sample_option(self, tmp_path, capsys, option):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden": {"++++": "1"}}))
        argv = {"--n": "10", "--seed": "1", option: "9" * 4000}
        err = self.run(capsys, ["simulate", "--model", str(path), *(x for pair in argv.items() for x in pair)])
        assert "got 99999" in err and "(4,000 characters)" in err

    def test_long_hidden_state(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden": {"+" * 100_000: "1"}}))
        err = self.run(capsys, ["simulate", "--model", str(path), "--n", "10", "--seed", "1"])
        assert "hidden state string must be 4 of +/-, got '++++" in err

    @pytest.mark.parametrize("option", ["--sig", "--n", "--seed"])
    def test_long_value_argparse_rejects(self, tmp_path, fixture_path, capsys, option):
        # argparse's own error: the usage line, then one line that echoes the start of the value
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden": {"++++": "1"}}))
        value = "x" * 10_000 if option == "--sig" else "9" * 5_000  # past int()'s 4,300-digit limit
        argv = ["analyze", fixture_path("table1")] if option == "--sig" else ["simulate", "--model", str(path)]
        argv += {"--n": ["--n", "10", "--seed", "1"], "--seed": ["--seed", "1", "--n", "10"]}.get(option, [])
        code = run_cli([*argv, option, value])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("usage: selinf ") and len(err.encode()) < 500
        kind = "float" if option == "--sig" else "int"
        echoed = f"'{value[:59]}... ({len(value) + 2:,} characters)"
        assert f"error: argument {option}: invalid {kind} value: {echoed}" in err

    @pytest.mark.parametrize("case", ["renormalized sum", "tolerance", "eta"])
    def test_long_rational_is_cut_to_its_first_60_characters(self, tmp_path, fixture_path, capsys, case):
        sevens = "7" * 1500
        if case == "renormalized sum":
            block = {"pp": "1e-1000", "pm": "0", "mp": "0", "mm": "0.5"}
            doc = {"treatments": {k: block for k in ("a,b", "a,b'", "a',b", "a',b'")}, "renormalize": True}
            path = tmp_path / "data.json"
            path.write_text(json.dumps(doc))
            err = self.run(capsys, ["analyze", str(path)])
            assert err.startswith("error: treatment a,b: cells sum to 5" + "0" * 59 + "... (2,001 digits) (~0.5000)")
        elif case == "tolerance":
            err = self.run(capsys, ["analyze", fixture_path("table1"), f"--tolerance=-1/{sevens}"])
            assert err == f"error: tolerance must be nonnegative, got -1/{sevens[:57]}... (1,501 digits)\n"
        else:
            pairs = {k: "++" for k in ("a,b", "a,b'", "a',b", "a',b'")}
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"hidden": {"++++": "1"}, "eta": f"{sevens}/3", "cross_map": pairs}))
            err = self.run(capsys, ["simulate", "--model", str(path), "--n", "10", "--seed", "1"])
            assert err == f"error: eta must be in [0, 1], got {'259' * 20}... (1,500 digits)\n"


class TestUndecodableFile:
    @pytest.mark.parametrize(
        "command", [["analyze"], ["witness"], ["simulate", "--n", "5", "--seed", "1", "--model"]], ids=lambda c: c[0]
    )
    def test_non_utf8_file_is_a_read_error(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}")
        code = run_cli([*command, str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
        assert "unexpected" not in err and "can't decode byte 0xff" in err

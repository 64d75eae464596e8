"""Command-line interface.

Commands::

    selinf analyze <file> [--tolerance E] [--sig A] [--bonferroni] [--witness] [--json]
    selinf witness <file> [--json]
    selinf simulate --model <file> --n <N> --seed <S> [--out <file>]
    selinf selftest

Exit codes: 0 when the hidden-state representation is feasible (or the
command succeeded), 1 when infeasible (or a selftest failed), 2 on input
or usage errors and on any other failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional, Sequence

from .errors import ParseError, SelinfError
from .model import echo
from .io import _json, analyze, parse_experiment, report_to_json_dict, serialize_experiment

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2

FIXTURE_NAMES = ("table1", "table2", "table3")


def load_fixture_text(name: str) -> str:
    return (resources.files("selinf") / "fixtures" / f"{name}.json").read_text()


def _converter(convert: type) -> Callable[[str], object]:
    """An argparse ``type`` that converts with ``convert`` and echoes a bad value through ``echo``."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError:  # argparse's own message would print the whole value
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {echo(text)}") from None

    return parse


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:  # argparse's own writer swallows OSError: a failed write must exit 2
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selinf",
        description="Selective-influence analysis of 2x2x2x2 experiments: "
        "CHSH statistic, marginal selectivity, hidden-state feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze an experiment file")
    p_analyze.add_argument("file", help="experiment JSON file")
    p_analyze.add_argument(
        "--tolerance",
        default="0",
        help="marginal-selectivity tolerance as a rational (default 0, exact)",
    )
    p_analyze.add_argument(
        "--sig",
        type=_converter(float),
        default=0.05,
        help="significance level for the marginal z-tests (default 0.05)",
    )
    p_analyze.add_argument(
        "--bonferroni",
        action="store_true",
        help="divide the significance level by the four comparisons",
    )
    p_analyze.add_argument(
        "--witness", action="store_true", help="include the witness when feasible"
    )
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")

    p_witness = sub.add_parser(
        "witness", help="print a hidden-state witness, or the blocking certificate"
    )
    p_witness.add_argument("file", help="experiment JSON file")
    p_witness.add_argument("--json", action="store_true", help="emit JSON")

    p_sim = sub.add_parser("simulate", help="sample an experiment from a model file")
    p_sim.add_argument("--model", required=True, help="model JSON file")
    p_sim.add_argument("--n", required=True, type=_converter(int), help="observations per treatment")
    p_sim.add_argument("--seed", required=True, type=_converter(int), help="64-bit unsigned seed")
    p_sim.add_argument("--out", help="output file (default: stdout)")

    sub.add_parser("selftest", help="run the built-in golden fixtures")
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    data = parse_experiment(_read_file(args.file))
    report = analyze(
        data,
        tolerance=args.tolerance,
        alpha_sig=args.sig,
        bonferroni=args.bonferroni,
    )
    if args.json:
        print(_json(report_to_json_dict(report, include_witness=args.witness)))
    else:
        from .report import render_report_text  # here, so that analyze --json and selftest never load the text report
        print(render_report_text(report, labels=data.labels, include_witness=args.witness), end="")
    return EXIT_FEASIBLE if report.feasibility.feasible else EXIT_INFEASIBLE


def _cmd_witness(args: argparse.Namespace) -> int:
    data = parse_experiment(_read_file(args.file))
    report = analyze(data)
    result = report.feasibility
    if args.json:  # the report's feasibility part: the verdict, then the witness or the certificate
        feasibility = report_to_json_dict(report, include_witness=True)["feasibility"]
        print(_json({k: v for k, v in feasibility.items() if k != "all_violations" and v is not None}))
    else:
        from .report import describe_certificate, witness_lines
        if result.feasible:
            print("\n".join(witness_lines(result.witness, "FEASIBLE; ", "  ")))
        else:
            print(f"INFEASIBLE\ncertificate: {describe_certificate(result.certificate)}")
    return EXIT_FEASIBLE if result.feasible else EXIT_INFEASIBLE


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import SampleSpec, parse_model, sample_counts  # here, so that the analysis commands never load it
    model = parse_model(_read_file(args.model))
    spec = SampleSpec(n_per_treatment=args.n, seed=args.seed)
    sampled = sample_counts(model, spec)
    text = serialize_experiment(sampled)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SelinfError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)
    return EXIT_FEASIBLE


def _selftest_checks():
    from .feasibility import FacetViolation
    from .selectivity import MarginalComparison

    def check_table1(report) -> list[str]:
        problems = []
        if report.chsh.gamma != 0:
            problems.append(f"Gamma = {report.chsh.gamma}, expected 0")
        if report.marginals.satisfied:
            problems.append("marginal selectivity should be violated")
        comp = report.marginals.comparisons[2]  # B at b
        found = (comp.p_under_first, comp.p_under_second, comp.delta)
        if found != (Fraction(1, 2), Fraction(2, 5), Fraction(1, 10)):
            problems.append(f"B at b: {found[0]} vs {found[1]}, delta {found[2]}, expected 1/2 vs 2/5, delta 1/10")
        if report.feasibility.feasible:
            problems.append("should be infeasible")
        elif not isinstance(report.feasibility.certificate, MarginalComparison):
            problems.append("certificate should be a marginal comparison")
        return problems

    def check_table2(report) -> list[str]:
        problems = []
        if report.chsh.gamma != 4:
            problems.append(f"Gamma = {report.chsh.gamma}, expected 4")
        if report.chsh.argmax_patterns != ("+++-",):
            problems.append("argmax should be exactly +++-")
        if not report.marginals.satisfied or report.marginals.max_delta != 0:
            problems.append("marginal selectivity should hold exactly")
        if report.feasibility.feasible:
            problems.append("should be infeasible")
        elif not isinstance(report.feasibility.certificate, FacetViolation):
            problems.append("certificate should be a CHSH facet")
        elif report.feasibility.certificate.value != report.chsh.sums[report.feasibility.certificate.pattern]:
            problems.append("the certificate's sum should be the CHSH report's")
        return problems

    def check_table3(report) -> list[str]:
        problems = []
        gamma = report.chsh.gamma
        if not Fraction(2415, 1000) <= gamma <= Fraction(2425, 1000):
            problems.append(f"Gamma = {float(gamma):.4f}, expected within [2.415, 2.425]")
        if report.marginals.satisfied:
            problems.append("marginal selectivity should be violated")
        cat_first, cat_second = report.marginals.comparisons[1].complements()
        if abs(cat_first - Fraction(135, 1000)) > Fraction(2, 1000) or abs(
            cat_second - Fraction(766, 1000)
        ) > Fraction(2, 1000):
            problems.append(
                f"second-alternative marginals {float(cat_first):.4f}/{float(cat_second):.4f},"
                " expected ~0.135 vs ~0.766"
            )
        if report.feasibility.feasible:
            problems.append("should be infeasible")
        return problems

    return {"table1": check_table1, "table2": check_table2, "table3": check_table3}


def _cmd_selftest(_args: argparse.Namespace) -> int:
    checks = _selftest_checks()
    failures = 0
    for name in FIXTURE_NAMES:
        data = parse_experiment(load_fixture_text(name))
        report = analyze(data)
        problems = checks[name](report)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            gamma = report.chsh.gamma_decimal()
            ms = "satisfied" if report.marginals.satisfied else "violated"
            verdict = "feasible" if report.feasibility.feasible else "infeasible"
            print(f"PASS {name}: Gamma = {gamma}, marginal selectivity {ms}, {verdict}")
    return EXIT_FEASIBLE if failures == 0 else EXIT_INFEASIBLE


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the command, return the exit code."""
    parser = build_parser()
    handlers = {
        "analyze": _cmd_analyze,
        "witness": _cmd_witness,
        "simulate": _cmd_simulate,
        "selftest": _cmd_selftest,
    }
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            code = int(exc.code or 0)
        else:
            code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except SelinfError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # reading input and writing --out raise SelinfError: this is stdout, full or closed
        with open(os.devnull, "w") as null:  # on fd 1, the interpreter's flush at exit fails no second time
            os.dup2(null.fileno(), 1)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
    except Exception as exc:  # a crash must not exit 1, the "infeasible" code
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

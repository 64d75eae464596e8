"""The three closed-loop workloads: one caller, each item after the last completes.

A workload makes its inputs from the seed in ``setup``, runs one item in
``run_item`` (the only code the benchmark times) and checks that item's
output in ``check_item``. ``instrument`` swaps the functions it calls for
traced wrappers, or back when given None.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Optional

from selinf.cli import load_fixture_text
from selinf.io import (
    analyze,
    parse_experiment,
    parse_model,
    render_report_text,
    report_to_json_dict,
    serialize_experiment,
)
from selinf.simulate import SampleSpec, sample_counts

from bench import checks, inputs
from bench.hostref import HostClock, ProcessClock, run_process
from bench.tracing import Tracer


def _render_json(report: Any) -> str:
    return json.dumps(report_to_json_dict(report, include_witness=True), indent=2)


class SelectiveBatch:
    """Exact-fraction experiment JSON through parse, analyze and a JSON report with witness."""

    name = "selective-batch"
    reference = HostClock
    warm_up = 20
    POOL = 400  # distinct experiments, served in a cycle

    def __init__(self, seed: int, validator: Any) -> None:
        self.seed = seed
        self.validator = validator
        self.instrument(None)

    def instrument(self, tracer: Optional[Tracer]) -> None:
        wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
        self.parse = wrap("io.parse_experiment", parse_experiment)
        self.analyze = wrap("io.analyze", analyze)
        self.render = wrap("io.render", _render_json)

    def setup(self) -> None:
        self.cases = inputs.selective_cases(random.Random(self.seed), self.POOL)
        self.checked: dict[int, str] = {}

    def run_item(self, i: int) -> tuple:
        data = self.parse(self.cases[i % self.POOL].text)
        report = self.analyze(data)
        return data, report, self.render(report)

    def check_item(self, i: int, output: tuple) -> list[str]:
        data, report, text = output
        k = i % self.POOL
        if k in self.checked:
            # Same input as an output that already passed every check.
            return [] if text == self.checked[k] else ["output differs from an earlier run of the same input"]
        truth = checks.Truth(self.cases[k].cells)
        problems = checks.check_json_report(truth, text, report, data, self.validator)
        if not problems:
            self.checked[k] = text
        return problems


class PowerStudy:
    """Sampled experiments through serialize, parse, analyze with z-tests and a text report."""

    name = "power-study"
    reference = HostClock
    warm_up = 4
    MODELS = 30
    N_PER_TREATMENT = 1000
    RESAMPLE_ONE_IN = 10  # share of items whose counts are drawn a second time

    def __init__(self, seed: int, validator: Any) -> None:
        self.seed = seed
        self.validator = validator
        self.draws_per_sample = 4 * self.N_PER_TREATMENT
        self.instrument(None)

    def instrument(self, tracer: Optional[Tracer]) -> None:
        wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
        self.sample = wrap("simulate.sample_counts", sample_counts)
        self.serialize = wrap("io.serialize_experiment", serialize_experiment)
        self.parse = wrap("io.parse_experiment", parse_experiment)
        self.analyze = wrap("io.analyze", analyze)
        self.render = wrap("io.render", render_report_text)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.models = [parse_model(t) for t in inputs.power_model_texts(rng, self.MODELS)]
        self.seed_base = rng.getrandbits(64)

    def _spec(self, i: int) -> SampleSpec:
        seed = (self.seed_base + i * 0x9E3779B97F4A7C15) % (1 << 64)
        return SampleSpec(n_per_treatment=self.N_PER_TREATMENT, seed=seed)

    def run_item(self, i: int) -> tuple:
        data = self.sample(self.models[i % self.MODELS], self._spec(i))
        text = self.serialize(data)
        parsed = self.parse(text)
        report = self.analyze(parsed)
        return data, text, parsed, report, self.render(report, parsed.labels)

    def check_item(self, i: int, output: tuple) -> list[str]:
        data, text, parsed, report, rendered = output
        try:
            cells, counts = checks.count_truth(text)
            problems = []
            if any(sum(c) != self.N_PER_TREATMENT for c in counts.values()):
                problems.append("a treatment does not hold n draws")
            if parsed != data:
                problems.append("parse(serialize(sample)) differs from the sample")
            truth = checks.Truth(cells)
            doc = report_to_json_dict(report, include_witness=True)
            problems += checks.check_json_report(truth, json.dumps(doc), report, parsed, self.validator)
            problems += checks.check_z_tests(doc, counts)
            problems += checks.check_text_report(truth, rendered)
            spec = self._spec(i)
            if spec.seed % self.RESAMPLE_ONE_IN == 0:
                if sample_counts(self.models[i % self.MODELS], spec) != data:
                    problems.append("re-sampling the same model and seed gave other counts")
            return problems
        except Exception as exc:
            return [f"check raised {type(exc).__name__}: {exc}"]


GOLDEN_NAMES = tuple(checks.GOLDEN_ANSWERS)
CLI_KINDS = GOLDEN_NAMES + ("selftest",)
_MAIN = "from selinf.cli import main; main()"
# The same entry point, reporting on stderr when it started, finished importing
# and finished the command, on the monotonic clock the parent reads too.
_MAIN_TIMED = (
    "import sys, time\n"
    "t0 = time.perf_counter_ns()\n"
    "from selinf.cli import main\n"
    "t1 = time.perf_counter_ns()\n"
    "try:\n"
    "    main()\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "else:\n"
    "    code = 0\n"
    "t2 = time.perf_counter_ns()\n"
    "sys.stdout.flush()\n"
    "print('@@bench', t0, t1, t2, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("SELINF_FORMAT", None)
    return env


def write_goldens(workdir: Path) -> dict[str, Path]:
    """Copy the shipped golden tables into the work directory."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in GOLDEN_NAMES:
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(load_fixture_text(name), encoding="utf-8")
    return paths


class CliGoldens:
    """One fresh interpreter at a time running the selinf CLI on the goldens and selftest."""

    name = "cli-goldens"
    reference = ProcessClock
    warm_up = len(CLI_KINDS)
    ORDER_BLOCKS = 500

    def __init__(self, seed: int, validator: Any, workdir: Path, src: Path) -> None:
        self.seed = seed
        self.validator = validator
        self.workdir = workdir
        self.env = child_env(src)
        self.tracer: Optional[Tracer] = None

    def instrument(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer

    def setup(self) -> None:
        self.paths = write_goldens(self.workdir)
        self.expected = {
            name: json.dumps(report_to_json_dict(analyze(parse_experiment(path.read_text()))), indent=2) + "\n"
            for name, path in self.paths.items()
        }
        rng = random.Random(self.seed)
        self.order: list[str] = []
        for _ in range(self.ORDER_BLOCKS):
            block = list(CLI_KINDS)
            rng.shuffle(block)
            self.order += block

    def argv(self, kind: str) -> list[str]:
        if kind == "selftest":
            return ["selftest"]
        return ["analyze", "--json", str(self.paths[kind])]

    def run_item(self, i: int) -> tuple:
        kind = self.order[i % len(self.order)]
        code = _MAIN_TIMED if self.tracer else _MAIN
        cmd = [sys.executable, "-c", code, *self.argv(kind)]
        if self.tracer is None:
            return (kind, *run_process(cmd, self.env))
        root = self.tracer.begin("cli.process")
        spawn = self.tracer.spans[root].start
        returncode, stdout, stderr = run_process(cmd, self.env)
        self.tracer.end(root)
        reaped = self.tracer.spans[root].end
        stderr_lines = stderr.splitlines(keepends=True)
        if stderr_lines and stderr_lines[-1].startswith("@@bench "):
            t0, t1, t2 = (int(v) for v in stderr_lines.pop().split()[1:])
            self.tracer.add("cli.interp", spawn, t0, root)
            self.tracer.add("cli.import", t0, t1, root)
            self.tracer.add("cli.run", t1, t2, root)
            self.tracer.add("cli.exit", t2, reaped, root)
        return kind, returncode, stdout, "".join(stderr_lines)

    def check_item(self, i: int, output: tuple) -> list[str]:
        kind, returncode, stdout, stderr = output
        if kind == "selftest":
            return checks.check_cli_selftest(returncode, stdout, stderr)
        return checks.check_cli_analyze(kind, returncode, stdout, stderr, self.expected[kind], self.validator)


def probe_processes(workdir: Path, src: Path) -> dict[str, float]:
    """Wall time (ms) of one process each: bare interpreter, import, analyze, selftest."""
    table2 = write_goldens(workdir)["table2"]
    env = child_env(src)
    argvs = {
        "cli.interp_ms": ["-c", "pass"],
        "cli.import_ms": ["-c", "import selinf.cli"],
        "cli.analyze_ms": ["-c", _MAIN, "analyze", "--json", str(table2)],
        "cli.selftest_ms": ["-c", _MAIN, "selftest"],
    }
    walls = {}
    for name, argv in argvs.items():
        start = time.perf_counter()
        returncode, _, stderr = run_process([sys.executable, *argv], env)
        walls[name] = (time.perf_counter() - start) * 1e3
        if returncode not in (0, 1):
            raise RuntimeError(f"{name} probe exited with {returncode}: {stderr[-300:]!r}")
    return walls

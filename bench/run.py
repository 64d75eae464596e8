"""Benchmark of selinf over three closed-loop workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload selective-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around each layer and prints the per-layer metrics.
Every time is host-normalised against a reference job (see hostref.py), and
the raw figures are printed beside the normalised ones. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from bench.hostref import HostClock  # noqa: E402
from bench.tracing import Tracer, fraction_call_counter, layer_stats, patched_call_sites  # noqa: E402

WORKLOADS = ("selective-batch", "power-study", "cli-goldens")
SETUP_REPEATS = 3
# A round of items between two reference samples lasts at least this long
# and holds at least this many items.
ROUND_S = 0.25
ROUND_ITEMS = 4
PROBE_ROUNDS = 5
# Shares of --seconds in the traced run: spans, then fraction-call counting.
TRACED_SHARE = 0.45
COUNTED_SHARE = 0.1

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics by span name; every figure is per item unless noted.
LAYERS = (
    ("simplex.feasible_point", ("calls", "busy_ms", "p50_us", "none_frac", "fraction_calls")),
    ("feasibility.solve_feasibility", ("calls", "busy_ms", "self_ms")),
    ("feasibility.fine_violations", ("calls", "busy_ms")),
    ("selectivity.check_marginal_selectivity", ("calls", "busy_ms")),
    ("chsh.compute_gamma", ("calls", "busy_ms", "p50_us")),
    ("chsh.chsh_facet_value", ("calls",)),
    ("selectivity.test_marginal_selectivity", ("calls", "busy_ms")),
    ("simulate.sample_counts", ("calls", "busy_ms", "draws_per_s")),
    ("io.parse_experiment", ("calls", "busy_ms", "p50_us")),
    ("io.serialize_experiment", ("calls", "busy_ms")),
    ("io.render", ("calls", "busy_ms", "p50_us")),
)
LAYER_UNITS = {
    "calls": "1/item",
    "busy_ms": "ms/item",
    "self_ms": "ms/item",
    "p50_us": "us",
    "none_frac": "frac",
    "fraction_calls": "1/call",
    "draws_per_s": "1/s",
}
CLI_METRICS = ("cli.interp_ms", "cli.import_ms", "cli.analyze_ms", "cli.selftest_ms")


class Tally:
    """Items attempted and failed, with the first few problems for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def add(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"item {i}: {'; '.join(problems)}")


def attempt(workload, i: int, tally: Tally, tracer=None) -> tuple[int | None, object]:
    """Run one item; return its wall time in ns and its output, or (None, None) if it raised."""
    if tracer is not None:
        tracer.item = i
        root = tracer.begin("item")
    start = time.perf_counter_ns()
    try:
        output = workload.run_item(i)
    except Exception as exc:
        tally.add(i, [f"raised {type(exc).__name__}: {exc}"])
        return None, None
    finally:
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end(root)
            tracer.item = None
    return elapsed, output


class Timings:
    """Wall times of the items that completed, and the host scale of every item's round."""

    def __init__(self) -> None:
        self.raw_ns: list[int] = []
        self.normalised_ns: list[float] = []
        self.scale: dict[int, float] = {}  # item id -> factor of its round


def run_items(workload, tally, clock, *, seconds=None, count=None, tracer=None) -> Timings:
    """The closed loop: items 0, 1, ... until the time or the count runs out.

    Items run in rounds of at least ROUND_S and ROUND_ITEMS. A reference job
    runs just before and just after each round, and the round's times are
    scaled by the clock's current factor, which follows the host's speed as
    it changes. The round's outputs are checked after its second reference
    job, outside the timed region.
    """
    timings = Timings()
    i = 0
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while (deadline is None or time.perf_counter() < deadline) and (count is None or i < count):
        outputs = {}
        durations = []
        clock.sample()
        first = i
        round_end = time.perf_counter() + ROUND_S
        while True:
            elapsed, outputs[i] = attempt(workload, i, tally, tracer)
            if elapsed is not None:
                durations.append(elapsed)
            i += 1
            if (time.perf_counter() >= round_end and i - first >= ROUND_ITEMS) or i == count:
                break
        clock.sample()
        scale = clock.scale()
        for j, output in outputs.items():
            timings.scale[j] = scale
            if output is not None:
                tally.add(j, workload.check_item(j, output))
        timings.raw_ns += durations
        timings.normalised_ns += [d * scale for d in durations]
    return timings


def set_up(workload, tally, clock) -> tuple[float, float]:
    """Generate inputs and warm up; return (raw, normalised) seconds, checks excluded."""
    clock.sample()
    start = time.perf_counter()
    workload.setup()
    spent = time.perf_counter() - start
    outputs = {}
    for i in range(workload.warm_up):
        elapsed, outputs[i] = attempt(workload, i, tally)
        spent += (elapsed or 0) / 1e9
    clock.sample()
    scale = clock.scale()
    for i, output in outputs.items():
        if output is not None:
            tally.add(i, workload.check_item(i, output))
    return spent, spent * scale


def tail(sorted_ms: list[float]) -> tuple[float, int, int]:
    """The highest of p99/p90 with at least ten samples beyond it: (value, percentile, beyond)."""
    n = len(sorted_ms)
    pct = 99 if n - -(-99 * n // 100) >= 10 else 90
    rank = -(-pct * n // 100)  # nearest rank, 1-based
    return sorted_ms[rank - 1], pct, n - rank


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def item_figures(durations_ns: list[float]) -> dict[str, float]:
    ms = sorted(d / 1e6 for d in durations_ns)
    tail_ms, pct, beyond = tail(ms)
    return {
        "items_per_s": len(ms) / (sum(ms) / 1e3),
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": tail_ms,
        "tail_note": f"p{pct}, {beyond} of {len(ms)} samples beyond",
    }


def end_to_end(workload, tally, clock, import_s: tuple[float, float], seconds: float) -> dict:
    setups = [set_up(workload, tally, clock) for _ in range(SETUP_REPEATS)]
    gc.collect()
    timings = run_items(workload, tally, clock, seconds=seconds)
    if not timings.raw_ns:
        raise RuntimeError("no item completed")
    raw = item_figures(timings.raw_ns)
    metrics = item_figures(timings.normalised_ns)
    raw["setup_s"] = import_s[0] + statistics.median(s[0] for s in setups)
    metrics["setup_s"] = import_s[1] + statistics.median(s[1] for s in setups)
    cli = workload.name == "cli-goldens"
    metrics["peak_rss_mb"] = peak_rss_mb(children=cli)
    notes = {
        "item_tail_ms": f"normalised {metrics['tail_note']}",
        "setup_s": f"import {import_s[1]:.4f} s + median of {SETUP_REPEATS} set-ups"
        f" {[round(s[1], 4) for s in setups]}",
        "peak_rss_mb": "largest child process" if cli else "benchmark process",
    }
    for name, unit in END_TO_END:
        extra = f"(raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:14s} {metrics[name]:12.6g} {unit:4s} {extra:18s} {notes.get(name, '')}")
    print(f"  {'fail_frac':14s} {tally.failed / max(tally.attempted, 1):12.6g}      ({tally.failed} of {tally.attempted} items)")
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def per_layer(workload, tally, clock, workdir: Path, seconds: float) -> dict:
    from bench.workloads import probe_processes  # imports selinf, so only after src is on the path

    set_up(workload, tally, clock)
    tracer = Tracer()
    counts: dict[str, int] = {}
    counted_stats = {}
    workload.instrument(tracer)
    with patched_call_sites(tracer):
        traced = run_items(workload, tally, clock, seconds=TRACED_SHARE * seconds, tracer=tracer)
        stats = layer_stats(tracer.take(), traced.scale)
        if workload.name != "cli-goldens":
            with fraction_call_counter(tracer) as counts:
                counted = run_items(workload, tally, clock, seconds=COUNTED_SHARE * seconds, tracer=tracer)
            counted_stats = layer_stats(tracer.take(), counted.scale)
    workload.instrument(None)
    plain = run_items(workload, tally, clock, count=len(traced.scale))
    probes: dict[str, list[float]] = {}
    probe_clock = HostClock()  # the same yardstick on every workload
    for _ in range(PROBE_ROUNDS):
        probe_clock.sample()
        walls = probe_processes(workdir, SRC)
        probe_clock.sample()
        scale = probe_clock.scale()
        for name, ms in walls.items():
            probes.setdefault(name, []).append(ms * scale)

    n_items = max(len(traced.raw_ns), 1)
    metrics: dict[str, tuple[float, str]] = {}
    for layer, fields in LAYERS:
        st = stats.get(layer)
        values = dict.fromkeys(LAYER_UNITS, 0.0)
        if st:
            values.update(
                calls=st.calls / n_items,
                busy_ms=st.busy_ns / 1e6 / n_items,
                self_ms=st.self_ns / 1e6 / n_items,
                p50_us=statistics.median(st.durations_ns) / 1e3,
                none_frac=st.returned_none / st.calls,
            )
            if layer == "simulate.sample_counts" and st.busy_ns:
                values["draws_per_s"] = st.calls * workload.draws_per_sample / (st.busy_ns / 1e9)
        if layer in counted_stats:
            values["fraction_calls"] = counts.get(layer, 0) / counted_stats[layer].calls
        for field in fields:
            metrics[f"{layer}.{field}"] = (values[field], LAYER_UNITS[field])
    for name in CLI_METRICS:
        metrics[name] = (statistics.median(probes[name]), "ms")
    metrics["host.ref_ms"] = (clock.ref_ms, "ms")
    plain_ns = sum(plain.normalised_ns)
    metrics["trace.overhead_frac"] = (sum(traced.normalised_ns) / plain_ns - 1 if plain_ns else 0.0, "frac")

    item_ns = sum(traced.normalised_ns) / n_items
    print(f"  self time per item ({n_items} traced items, {item_ns / 1e6:.4g} ms each, normalised):")
    print(f"    {'span':42s} {'calls':>7s} {'busy ms':>9s} {'self ms':>9s} {'share':>7s}")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        print(
            f"    {name:42s} {st.calls / n_items:7.3g} {st.busy_ns / 1e6 / n_items:9.4f}"
            f" {st.self_ns / 1e6 / n_items:9.4f} {st.self_ns / n_items / item_ns:7.1%}"
        )
    return metrics


def pin_to_one_cpu() -> str:
    """Keep the benchmark and its children on one CPU, so that the reference
    job and the items it normalises always run on the same core; each core of
    the host changes speed on its own."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return f"cpu {cpu}"
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selinf" / "__init__.py").is_file():
        print(f"error: no selinf package under {SRC}; run from the root of a selinf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()[0]
    pinned = pin_to_one_cpu()

    start = time.perf_counter()
    import selinf.cli  # noqa: F401  (timed: part of set-up)
    import selinf.io  # noqa: F401
    import selinf.simulate  # noqa: F401

    import_raw = time.perf_counter() - start

    from bench.checks import load_validator
    from bench.workloads import CliGoldens, PowerStudy, SelectiveBatch

    workdir = ROOT / ".bench_work" / str(os.getpid())
    validator = load_validator()
    workload = {
        "selective-batch": lambda: SelectiveBatch(args.seed, validator),
        "power-study": lambda: PowerStudy(args.seed, validator),
        "cli-goldens": lambda: CliGoldens(args.seed, validator, workdir, SRC),
    }[args.workload]()
    clock = workload.reference()
    clock.sample()
    import_s = (import_raw, import_raw * clock.scale())
    tally = Tally()
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
        f"  python {platform.python_version()}  nproc {os.cpu_count()}  {pinned}"
    )
    try:
        if args.trace:
            metrics = per_layer(workload, tally, clock, workdir, args.seconds)
        else:
            metrics = end_to_end(workload, tally, clock, import_s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    load_end = os.getloadavg()[0]
    if args.trace:
        metrics["host.load1_start"] = (load_start, "load")
        metrics["host.load1_end"] = (load_end, "load")
    print(
        f"  host: R_run {clock.ref_ms:.4f} ms (mean of {len(clock.samples_ms)} reference jobs,"
        f" {min(clock.samples_ms):.3f}..{max(clock.samples_ms):.3f}), R_nominal {clock.nominal_ms} ms,"
        f" load1 {load_start:.2f} -> {load_end:.2f}"
    )
    for example in tally.examples:
        print(f"  FAILED {example}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:52s} {value:14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

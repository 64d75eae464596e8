"""Byte identity of every emitted output across a seeded corpus.

One SHA-256 covers what the pipeline writes for the three goldens, seeded
corpora from the conftest generators (marginally selective, unconstrained,
push-forwards of hidden-state models) and seeded samples from selective and
contaminated models: the serialized experiment, the JSON report with and
without the witness, the text report with and without the witness, and the
``witness`` command's text and JSON output with its exit code. Any change to
a witness choice, a certificate order, a rendered digit or a sampled count
moves the digest, so a deliberate output change must update it in the same
commit.
"""

import hashlib
import json
import random
from fractions import Fraction

from selinf.cli import FIXTURE_NAMES, load_fixture_text, run_cli
from selinf.feasibility import predicted_tables
from selinf.io import (
    analyze,
    parse_experiment,
    render_report_text,
    report_to_json_dict,
    serialize_experiment,
)
from selinf.model import CELLS, TREATMENTS
from selinf.simulate import Model, SampleSpec, sample_counts

from conftest import pr_box, random_any_data, random_hidden_distribution, random_ms_data

CORPUS_SHA256 = "f55ca4bceceedc501db17ca75e547f8bbbd1d265925b26a6b766e63c5c47f13d"


def corpus():
    for name in FIXTURE_NAMES:
        yield parse_experiment(load_fixture_text(name))
    yield pr_box()
    rng = random.Random(2026)
    for _ in range(40):
        yield random_ms_data(rng)
        yield random_any_data(rng)
        yield predicted_tables(random_hidden_distribution(rng))
    cross = dict(zip(TREATMENTS, CELLS))
    for seed in range(6):
        hidden = random_hidden_distribution(rng)
        spec = SampleSpec(n_per_treatment=200, seed=seed)
        yield sample_counts(Model(hidden), spec)
        yield sample_counts(Model(hidden, Fraction(1, 5), cross), spec)


def test_outputs_are_byte_identical_across_the_corpus(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "experiment.json"
    for data in corpus():
        text = serialize_experiment(data)
        report = analyze(data)
        outputs = [
            text,
            json.dumps(report_to_json_dict(report, include_witness=True), indent=2),
            json.dumps(report_to_json_dict(report), indent=2),
            render_report_text(report, labels=data.labels, include_witness=True),
            render_report_text(report, labels=data.labels),
        ]
        path.write_text(text)
        for extra in ([], ["--json"]):
            code = run_cli(["witness", str(path), *extra])
            outputs.append(f"{code}\n{capsys.readouterr().out}")
        for out in outputs:
            digest.update(out.encode())
            digest.update(b"\0")
    assert digest.hexdigest() == CORPUS_SHA256

"""selinf under the other supported interpreters: Python 3.10 and 3.12.

``pyproject.toml`` claims Python 3.10 and later, and ``Fraction``'s grammar
differs between versions: 3.10 rejects "0.000_1" and "1_0/3", later versions
accept them, while ``int()`` reads underscores on all of them. Each
interpreter found on PATH runs, in one child process, ``selinf selftest``,
``analyze --json`` on the three goldens, whose output must equal this
interpreter's byte for byte, and ``rational`` on strings that must read as
that interpreter's own ``Fraction`` reads them. An interpreter that is not
found is skipped.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from selinf.cli import FIXTURE_NAMES, run_cli

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDENS = [str(SRC / "selinf" / "fixtures" / f"{name}.json") for name in FIXTURE_NAMES]
STRINGS = ["0.", ".", "1/0", "00/1", "١/٢", " 1/2 ", "0.000_1", "1_0/3", "49/1000", ".049", "0.5", "1 / 2"]

CHILD = """
import contextlib, io, json, sys
from fractions import Fraction
from selinf.cli import run_cli
from selinf.errors import InvalidValue
from selinf.model import rational

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    return [code, out.getvalue()]

def read(parse, text):
    try:
        return str(parse(text))
    except (InvalidValue, ValueError, ZeroDivisionError):
        return None

goldens, strings = json.loads(sys.argv[1])
print(json.dumps({
    "selftest": run(["selftest"]),
    "analyze": [run(["analyze", "--json", path]) for path in goldens],
    "rational": [[read(rational, text), read(Fraction, text)] for text in strings],
}))
"""


def run_here(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    return [code, out.getvalue()]


@pytest.mark.parametrize("version", ["3.10", "3.12"])
def test_selftest_goldens_and_rational_agree_under(version):
    executable = shutil.which(f"python{version}")
    # a pyenv shim runs the version PYENV_VERSION names; other interpreters ignore it
    env = {**os.environ, "PYENV_VERSION": version, "PYTHONPATH": str(SRC)}
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    if executable is None or subprocess.run(
        [executable, "-c", probe], env=env, capture_output=True, text=True
    ).stdout.strip() != version:
        pytest.skip(f"python{version} is not on PATH")
    child = subprocess.run(
        [executable, "-c", CHILD, json.dumps([GOLDENS, STRINGS])],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    code, text = result["selftest"]
    assert code == 0 and text.count("PASS") == 3, text
    assert result["analyze"] == [run_here(["analyze", "--json", path]) for path in GOLDENS]
    for text, (ours, theirs) in zip(STRINGS, result["rational"]):
        assert ours == theirs, text
    # the strings whose reading differs between versions do reach both outcomes
    readings = dict(zip(STRINGS, result["rational"]))
    assert (readings["0.000_1"][1] is None) == (version == "3.10")

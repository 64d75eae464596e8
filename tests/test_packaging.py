"""Package hygiene: stdlib-only imports, no unused ones, and a public API that matches its imports."""

import ast
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
import typing
from importlib import import_module
from pathlib import Path
from types import FunctionType

import pytest

import selinf
from selinf.io import serialize_experiment

from mutants import MUTANTS, ROOT

PACKAGE_DIR = Path(selinf.__file__).parent


def parsed_modules():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_every_absolute_import_is_in_the_standard_library():
    outside = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{name}: {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def loaded_by_importing_the_cli(modules):
    """Which of the named modules a fresh interpreter holds after ``import selinf.cli``."""
    code = "import sys, selinf.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    child = subprocess.run([sys.executable, "-c", code, *modules], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_importing_the_cli_loads_no_source_introspection_module():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 30 ms of every selinf process
    assert loaded_by_importing_the_cli(["dataclasses", "inspect", "ast", "dis", "tokenize"]) == "[]\n"


def test_importing_the_cli_does_not_load_the_sampler():
    # analyze, witness and selftest never sample; without bytecode a process compiles every module it loads
    assert loaded_by_importing_the_cli(["selinf.simulate"]) == "[]\n"


ANALYSIS_MODULES = [
    "selinf", "selinf.chsh", "selinf.cli", "selinf.errors", "selinf.feasibility", "selinf.io", "selinf.model",
    "selinf.selectivity", "selinf.simplex",
]
GOLDEN = str(PACKAGE_DIR / "fixtures" / "table1.json")


@pytest.mark.parametrize(
    ("argv", "added"),
    [
        (["analyze", "--json", GOLDEN], []),
        (["analyze", "--json", "--witness", "feasible.json"], []),
        (["selftest"], []),
        (["witness", "--json", "feasible.json"], []),
        (["analyze", GOLDEN], ["selinf.report"]),
        (["witness", GOLDEN], ["selinf.report"]),
        (["witness", "feasible.json"], ["selinf.report"]),
        (["simulate", "--model", "model.json", "--n", "5", "--seed", "1"], ["selinf.simulate"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, added, tmp_path):
    # a JSON report and the selftest need neither the text report nor the sampler
    (tmp_path / "feasible.json").write_text(serialize_experiment(selinf.predicted_tables(
        selinf.HiddenStateDistribution.from_mapping({"++++": "1/2", "----": "1/2"})
    )))
    (tmp_path / "model.json").write_text('{"hidden": {"+-+-": "1"}}')
    code = (
        "import sys; from selinf.cli import run_cli; code = run_cli(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'selinf'), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    child = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    exit_code, modules = child.stderr.split(" ", 1)
    assert exit_code in ("0", "1") and ast.literal_eval(modules) == sorted(ANALYSIS_MODULES + added)


MOVED = {
    "describe_certificate": "report", "parse_model": "simulate", "render_report_text": "report",
    "report_from_json_dict": "report", "witness_lines": "report",
}


def test_each_moved_name_still_reads_from_io_and_the_package_as_its_new_modules_object():
    for name, module in MOVED.items():
        moved = getattr(import_module(f"selinf.{module}"), name)
        assert getattr(selinf.io, name) is moved
        assert name not in selinf.__all__ or getattr(selinf, name) is moved
    with pytest.raises(AttributeError, match="module 'selinf.io' has no attribute 'Model'"):
        selinf.io.Model


def test_every_public_annotation_resolves():
    # with postponed annotations a name imported only for type checking resolves nowhere at run time
    unresolved = []
    for name in selinf.__all__:
        value = getattr(selinf, name)
        function = vars(value).get("__init__") if isinstance(value, type) else value
        if callable(function):
            try:
                typing.get_type_hints(function)
            except NameError as exc:
                unresolved.append(f"{name}: {exc}")
    assert unresolved == []


def test_all_lists_exactly_the_names_imported_by_the_package():
    # the sampler's and the text report's names are resolved on first access, by the package's __getattr__
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    names = imported + sorted(selinf._LAZY)
    assert set(selinf.__all__) == set(names)
    assert len(selinf.__all__) == len(names)
    for name in selinf.__all__:
        assert getattr(selinf, name) is not None


def test_star_import_binds_every_public_name_and_the_sampler_names_are_its_own():
    namespace = {}
    exec("from selinf import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(selinf.__all__)
    assert len(selinf.__all__) == 41
    assert selinf.Model is selinf.simulate.Model and selinf.sample_counts is selinf.simulate.sample_counts
    assert selinf.SampleSpec is selinf.simulate.SampleSpec and selinf.SplitMix64 is selinf.simulate.SplitMix64
    with pytest.raises(AttributeError, match="has no attribute 'simulated'"):
        selinf.simulated


def code_names(path):
    """Names a Python file uses in code: NAME tokens, not words in strings or
    comments, and not the names its def, class and top-level assignments define."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    used = set()
    for before, token, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        defined = (before is not None and before.string in ("def", "class")) or (
            token.start[1] == 0 and after is not None and after.string in ("=", ":")
        )
        if token.type == tokenize.NAME and not defined:
            used.add(token.string)
    return used


def test_code_names_skip_prose_and_definitions(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Probability cells."""\n'
        "# Probability in a comment\n"
        "Probability = float\n"
        "Rational: type = int\n"
        "def helper():\n"
        "    return Rational(0)\n"
    )
    names = code_names(path)
    assert "Probability" not in names and "helper" not in names
    assert "Rational" in names and "float" in names


def public_methods():
    """(class name, name, is a method) of every public method and property each public class defines."""
    for cls_name in selinf.__all__:
        cls = getattr(selinf, cls_name)
        if inspect.isclass(cls):
            for name, value in vars(cls).items():
                method = isinstance(value, (FunctionType, classmethod, staticmethod))
                if not name.startswith("_") and (method or isinstance(value, property)):
                    yield cls_name, name, method


def attribute_uses(path):
    """(class name or None, name, called) for each ``expr.name`` a file reads outside a def
    of that name; ``called`` tells whether the read is the callee of ``expr.name(...)``.

    ``Cls.name`` binds to the public class Cls, and ``Cls.method(...).name`` to
    the public class that ``method`` is annotated to return; any other
    receiver gives None, a use of ``name`` on every class.
    """

    def receiver(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = receiver(node.func.value)
            method = getattr(getattr(selinf, owner), node.func.attr, None) if owner else None
            node = ast.Name(getattr(method, "__annotations__", {}).get("return", "").strip("'\""))
        if isinstance(node, ast.Name) and node.id in selinf.__all__ and inspect.isclass(getattr(selinf, node.id)):
            return node.id
        return None

    uses = set()
    tree = ast.parse(path.read_text())
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in defs:
            uses.add((receiver(node.value), node.attr, id(node) in callees))
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    visit(tree, frozenset())
    return uses


def test_attribute_uses_bind_to_the_receiver_class(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""JointTable.uniform() in prose."""\n'
        "def mix(table):\n"
        "    return table.mix(table)\n"
        "Treatment.from_key('a,b').key\n"
        "HiddenStateDistribution.from_mapping({}).items()\n"
        "data.table(t)\n"
        "result.comparison\n"
    )
    assert attribute_uses(path) == {
        ("Treatment", "from_key", True),
        ("Treatment", "key", False),
        ("HiddenStateDistribution", "from_mapping", True),
        ("HiddenStateDistribution", "items", True),
        (None, "table", True),
        (None, "comparison", False),  # reads a field: no use of a method of that name
    }


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests use belongs in a test helper, not in the API; so does a
    # method, which counts as used where it is called as an attribute in the
    # package outside its own def, or in the benchmark, and a property, where it is read;
    # a property that is a record's field is read by name by every record's repr, equality and pickling
    root = PACKAGE_DIR.parent.parent
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "bench").glob("*.py"))
    used = set().union(*(code_names(path) for path in paths))
    unused = [name for name in selinf.__all__ if name not in used]
    uses = set().union(*(attribute_uses(path) for path in paths))
    reads = {(cls, name) for cls, name, _ in uses}
    reads |= {(cls, name) for cls in selinf.__all__ for name in getattr(getattr(selinf, cls), "_fields", ())}
    calls = {(cls, name) for cls, name, called in uses if called}
    unused += [
        f"{cls}.{name}"
        for cls, name, method in public_methods()
        if not {(cls, name), (None, name)} & (calls if method else reads)
    ]
    assert unused == []


def unused_imports(path):
    """``line: name`` for each name a file imports and never uses as a name, skipping
    ``from __future__`` imports and import statements marked ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_skip_future_noqa_and_dotted_uses(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from fractions import (\n"
        "    Fraction,\n"
        "    Decimal as D,\n"
        ")\n"
        '"""Fraction in prose."""\n'
        "os.path.join('a')\n"
    )
    assert unused_imports(path) == ["4: Fraction", "4: D"]


def test_every_import_is_used():
    # the package's __init__ imports are its API, which the __all__ test checks
    root = PACKAGE_DIR.parent.parent
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    unused = [f"{path.relative_to(root)}:{use}" for path in paths for use in unused_imports(path)]
    assert unused == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, table2):
    # the README's library example opens "experiment.json" in the working directory
    blocks = re.findall(r"^```python\n(.*?)^```", (PACKAGE_DIR.parent.parent / "README.md").read_text(), re.M | re.S)
    assert blocks
    (tmp_path / "experiment.json").write_text(serialize_experiment(table2))
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_mutant_snippet_occurs_once_and_names_tests_that_exist():
    for name, file, snippet, _, tests in MUTANTS:
        assert file.startswith("src/") and (ROOT / file).read_text().count(snippet) == 1, name
        for test in tests:
            module, *scopes = test.split("::")
            source = (ROOT / module).read_text()
            assert all(re.search(rf"^\s*(class|def) {scope}\b", source, re.M) for scope in scopes), test


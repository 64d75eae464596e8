"""Package hygiene: stdlib-only imports and a public API that matches its imports."""

import ast
import inspect
import io
import re
import sys
import tokenize
from pathlib import Path
from types import FunctionType

import selinf

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


def test_all_lists_exactly_the_names_imported_by_the_package():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(selinf.__all__) == imported
    assert len(selinf.__all__) == len(imported)
    for name in selinf.__all__:
        assert getattr(selinf, name) is not None


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
    """(class name, name) of every public method and property each public class defines."""
    for cls_name in selinf.__all__:
        cls = getattr(selinf, cls_name)
        if inspect.isclass(cls):
            for name, value in vars(cls).items():
                if not name.startswith("_") and isinstance(value, (FunctionType, classmethod, staticmethod, property)):
                    yield cls_name, name


def attribute_uses(path):
    """(class name or None, name) for each ``expr.name`` a file reads outside a def of that name.

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

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in defs:
            uses.add((receiver(node.value), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    visit(ast.parse(path.read_text()), frozenset())
    return uses


def test_attribute_uses_bind_to_the_receiver_class(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""JointTable.uniform() in prose."""\n'
        "def mix(table):\n"
        "    return table.mix(table)\n"
        "JointTable.point_mass(1, 1).cells()\n"
        "HiddenStateDistribution.from_mapping({}).items()\n"
        "data.table(t)\n"
    )
    assert attribute_uses(path) == {
        ("JointTable", "point_mass"),
        ("JointTable", "cells"),
        ("HiddenStateDistribution", "from_mapping"),
        ("HiddenStateDistribution", "items"),
        (None, "table"),
    }


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests use belongs in a test helper, not in the API; so does a
    # method or property, which counts as used where it is read as an attribute
    # in the package outside its own def, or in the benchmark
    root = PACKAGE_DIR.parent.parent
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "bench").glob("*.py"))
    used = set().union(*(code_names(path) for path in paths))
    readme = (root / "README.md").read_text()
    unused = [name for name in selinf.__all__ if name not in used and not re.search(rf"\b{name}\b", readme)]
    uses = set().union(*(attribute_uses(path) for path in paths))
    unused += [f"{cls}.{name}" for cls, name in public_methods() if not {(cls, name), (None, name)} & uses]
    assert unused == []

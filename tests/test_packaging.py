"""Package hygiene: stdlib-only imports and a public API that matches its imports."""

import ast
import re
import sys
from pathlib import Path

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


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests use belongs in a test helper, not in the API
    root = PACKAGE_DIR.parent.parent
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "bench").glob("*.py")) + [root / "README.md"]
    texts = [path.read_text() for path in paths]
    unused = []
    for name in selinf.__all__:
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*(?::[^=\n]*)?=", re.M)
        if not any(re.search(rf"\b{name}\b", definition.sub("", text)) for text in texts):
            unused.append(name)
    assert unused == []

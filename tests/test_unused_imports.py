"""Every imported name must be used in the module that imports it.

An import nothing reads is dead weight that survives the code it once
served. The check is by name: an imported name counts as used when the
module loads it anywhere (as a bare name or as the root of an attribute
chain).
"""

import ast
from pathlib import Path

import pytest

import lidarcalib

PACKAGE = Path(lidarcalib.__file__).parent
TESTS = Path(__file__).parent
SCRIPTS = TESTS.parent / "scripts"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


MODULES = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"),
                  *SCRIPTS.glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, f"unused imports: {unused}"

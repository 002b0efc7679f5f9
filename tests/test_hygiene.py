"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "bvhy").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): found for p in paths
              if p.name != "__init__.py" and (found := _unused_imports(p))}
    assert not unused, unused


def _asserts(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    # python -O strips assert, so library invariants must raise instead
    found = {str(p.relative_to(ROOT)): lines
             for p in sorted((ROOT / "src" / "bvhy").glob("*.py"))
             if (lines := _asserts(p))}
    assert not found, found

"""Source hygiene checks that need only the standard library."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
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


def _references(tree) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    # a function, class or method of the package that nothing outside its
    # own body names is a helper whose last caller is gone
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    package = sorted((ROOT / "src" / "bvhy").glob("*.py"))
    used = Counter()
    for path in sorted(ROOT.glob("src/**/*.py")) + \
            sorted((ROOT / "tests").glob("*.py")) + \
            sorted((ROOT / "perfbench").glob("*.py")):
        used += _references(ast.parse(path.read_text(encoding="utf-8")))
    orphans = []
    for path in package:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, defs) and not (
                    node.name.startswith("__") and node.name.endswith("__")) \
                    and used[node.name] == _references(node)[node.name]:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, orphans


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


def _bvhy_names(path: Path):
    """``(module, name)`` for every ``bvhy`` name ``path`` uses: the names
    of each ``from bvhy.mod import name`` and each ``mod.name`` attribute
    of a module bound by ``from bvhy import mod``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bvhy":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("bvhy."):
            used.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((f"bvhy.{modules[node.value.id]}", node.attr))
    return used


def test_perfbench_uses_only_names_bvhy_defines():
    # testpaths leaves perfbench/ out, so a name moved out of the package
    # would break the benchmark without failing any collected test
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _bvhy_names(path)
    assert {m for m, _ in used} >= {"bvhy.bv", "bvhy.engine", "bvhy.hodge",
                                   "bvhy.serialize", "bvhy.trees"}
    missing = sorted((m, n) for m, n in used
                     if not hasattr(importlib.import_module(m), n))
    assert not missing, missing


# Runs in a fresh interpreter, since pytest's own has imported everything.
# Modules already loaded before bvhy (by the interpreter and its site hooks)
# are left out of the sets it prints.  It takes them before it imports
# anything itself, and carries the argvs in and the sets out as Python
# literals, so that no module of its own (json, say) hides in them.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from bvhy import cli
loaded = []
for argv in ARGVS:
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded.append(sorted(set(sys.modules) - before))
print(repr(loaded))
"""


def test_validate_and_transfer_load_only_what_they_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    algebra = tmp_path / "algebra.json"
    algebra.write_text(example)
    with_gram = tmp_path / "gram.json"
    with_gram.write_text(json.dumps(dict(json.loads(example), gram=[
        ["x", "x", "2"], ["e", "x", "1/2"]])))
    argvs = [["validate", str(algebra)], ["validate", str(with_gram)],
             ["transfer", str(algebra), "--max-arity", "3",
              "--out", str(tmp_path / "table.json")]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c",
                           _IMPORT_PROBE.replace("ARGVS", repr(argvs))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    _, after_validate, after_transfer = map(set, ast.literal_eval(
        proc.stdout.splitlines()[-1]))
    assert {"bvhy.serialize", "bvhy.hodge"} <= after_validate
    # validate runs on integers: no Fraction view, and no fractions module
    # with the decimal and numbers modules it imports
    assert after_validate & {"bvhy.engine", "bvhy.trees", "bvhy.certify",
                             "bvhy.models", "bvhy.elements", "bvhy.rational",
                             "dataclasses", "fractions", "decimal",
                             "numbers"} == set()
    assert "bvhy.engine" in after_transfer
    # transfer needs only engine.splits of the tree code; argparse, and
    # hashlib with OpenSSL behind it, are start-up the commands can skip;
    # Element arithmetic serves only the reference evaluator and the tests
    assert after_transfer & {"bvhy.trees", "bvhy.certify", "bvhy.models",
                             "bvhy.elements", "dataclasses", "argparse",
                             "hashlib", "_hashlib"} == set()
    # the engine runs on the integer tables too: no Fraction view
    assert after_transfer & {"bvhy.rational", "fractions", "decimal",
                             "numbers"} == set()
    # serialize reads and writes JSON itself: neither command loads json
    json_modules = {"json", "json.decoder", "json.encoder", "json.scanner"}
    assert (after_validate | after_transfer) & json_modules == set()
    # the footprint reader is certify's alone, so neither command loads it
    readers = {p.stem for p in (ROOT / "src" / "bvhy").glob("*.py")
               if "def footprint_from_json(" in p.read_text(encoding="utf-8")}
    assert readers == {"certify"}

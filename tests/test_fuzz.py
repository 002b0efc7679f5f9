"""Seeded fuzzing of the input boundary through ``cli.main``.

Mutants of the README example and of built-in exports (keys and rows
dropped, values retyped, names swapped, rows duplicated) go through
``validate`` and ``transfer``.  Every run must end in a documented exit
code without raising, and a schema error must leave exactly one
``error:`` line on stderr.
"""

import copy
import json
import random

import pytest

from test_cli import _README_ALGEBRA
from bvhy import serialize
from bvhy.cli import main
from bvhy.models import build_skew_gram_model, build_torus_model, \
    build_trivial_model, search_nonformal

MUTANTS = 750

# values a field of the wrong type or an odd scalar may carry
_ODD_VALUES = [None, True, False, 0, -1, 1.5, 1e300, [], ["x"], {},
               {"name": "e"}, "", "1e5", "1E-3", "3/0", "0x10", "1_000",
               " 3/2 ", "-0", "3/-2", "nan", "inf", "9" * 5000,
               "1/" + "7" * 60]
# raw JSON tokens spliced into the text: an integer past the digit limit,
# deep nesting, and non-finite numbers
_RAW = ["9" * 5000, "[" * 50000 + "]" * 50000, "1e400", "NaN", "-Infinity"]
_RAW_MARK = "@raw@"


def _paths(node, path=()):
    """Paths (tuples of keys and indices) to every node below the root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def _mutate(rng: random.Random, doc) -> str:
    """One random mutation of ``doc`` in place; returns the JSON text."""
    paths = list(_paths(doc))
    names = [b["name"] for b in doc["basis"]]
    path = rng.choice(paths)
    parent, last = _parent(doc, path), path[-1]
    kind = rng.randrange(5)
    raw = None
    if kind == 0:                               # drop a key or a row
        del parent[last]
    elif kind == 1:                             # retype a value
        parent[last] = rng.choice(_ODD_VALUES)
    elif kind == 2:                             # splice in a raw token
        parent[last], raw = _RAW_MARK, rng.choice(_RAW)
    elif kind == 3:                             # swap a name
        named = [p for p in paths if _parent(doc, p)[p[-1]] in names]
        if named:
            path = rng.choice(named)
            _parent(doc, path)[path[-1]] = rng.choice(names)
    else:                                       # duplicate a row
        rows = [p for p in paths if isinstance(_parent(doc, p), list)]
        if rows:
            path = rng.choice(rows)
            row_list = _parent(doc, path)
            row_list.insert(path[-1], copy.deepcopy(row_list[path[-1]]))
    text = json.dumps(doc)
    if raw is not None:
        text = text.replace(json.dumps(_RAW_MARK), raw)
    return text


@pytest.fixture(scope="module")
def seeds():
    models = (build_trivial_model(1), build_torus_model(1, 1),
              build_skew_gram_model(), search_nonformal(seed=0))
    return [_README_ALGEBRA] + [serialize.algebra_to_json(m.algebra,
                                                          m.inner_product)
                                for m in models]


def test_mutated_inputs_end_in_a_documented_exit(seeds, tmp_path, capsys):
    rng = random.Random(20120)
    path = tmp_path / "mutant.json"
    out = str(tmp_path / "table.json")
    codes = {}
    for i in range(MUTANTS):
        text = _mutate(rng, copy.deepcopy(seeds[i % len(seeds)]))
        path.write_text(text)
        for argv in (["validate", str(path)],
                     ["transfer", str(path), "--max-arity", "3",
                      "--out", out]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv[0], text[:300])
            if code == 2:
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), \
                    (argv[0], text[:300], captured.err[-500:])
            codes[code] = codes.get(code, 0) + 1
    # the mutants reach past the parser: some pass, some fail a check
    assert codes.get(0) and codes.get(1) and codes.get(2)

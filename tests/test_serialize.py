"""JSON schemas: round trips, deterministic output, located error messages;
the JSON reader and writer against ``json``."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from certify_oracle import footprint_to_json
from views import nonzero_entries
from bvhy import serialize
from bvhy.certify import footprint_from_json
from bvhy.graded import Bidegree
from bvhy.models import (build_skew_gram_model, build_torus_model,
                         search_nonformal)
from bvhy.reporting import ratio_text
from bvhy.serialize import SchemaError

F = Fraction


def test_scalar_round_trip():
    for x in (F(3, 2), F(-1), F(5), F(0), F(-7, 3)):
        assert serialize.parse_scalar(str(x), "t") == x
        # the witnesses' and exports' text of an integer ratio reads back
        text = ratio_text(3 * x.numerator, 3 * x.denominator)
        assert text == str(x)
        assert serialize.read_scalar(text, "t") == (x.numerator, x.denominator)
    with pytest.raises(SchemaError):
        serialize.parse_scalar("1.5.2", "t")
    with pytest.raises(SchemaError):
        serialize.parse_scalar("3/0", "t")
    with pytest.raises(SchemaError):
        serialize.parse_scalar("1e5", "t")


def test_algebra_round_trip_torus():
    m = build_torus_model(1, 1)
    doc = serialize.algebra_to_json(m.algebra)
    back, gram = serialize.algebra_from_json(json.loads(serialize.dump(doc)))
    assert gram is None
    assert back.space.names == m.algebra.space.names
    assert back.space.bidegree == m.algebra.space.bidegree
    assert back.unit == m.algebra.unit
    for f in ("d", "delta"):
        mine, theirs = getattr(back, f), getattr(m.algebra, f)
        assert mine.shift == theirs.shift
        assert nonzero_entries(mine) == nonzero_entries(theirs)
    assert back.product == m.algebra.product


def test_algebra_round_trip_with_gram():
    m = build_skew_gram_model()
    doc = serialize.algebra_to_json(m.algebra, m.inner_product)
    assert "gram" in doc
    back, gram = serialize.algebra_from_json(doc)
    for deg in back.space.occupied_bidegrees():
        assert gram.block(deg) == m.inner_product.block(deg)


def test_dump_is_deterministic():
    m = build_torus_model(1, 1)
    d1 = serialize.dump(serialize.algebra_to_json(m.algebra))
    d2 = serialize.dump(serialize.algebra_to_json(build_torus_model(1, 1).algebra))
    assert d1 == d2
    assert d1.endswith("\n")


def _minimal_doc():
    return {
        "schema": 1,
        "basis": [{"name": "e", "p": 0, "q": 0},
                  {"name": "x", "p": 0, "q": 0},
                  {"name": "y", "p": 0, "q": 1}],
        "unit": "e",
        "d": [["x", "y", "1"]],
        "delta": [],
        "product": [["e", "e", "e", "1"], ["e", "x", "x", "1"],
                    ["e", "y", "y", "1"]],
    }


def test_minimal_doc_parses():
    algebra, gram = serialize.algebra_from_json(_minimal_doc())
    assert algebra.d.entries["x"]["y"] == F(1)
    assert gram is None


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(schema=2), "unsupported schema"),
    (lambda d: d.update(basis=[]), "basis"),
    (lambda d: d["basis"].append({"name": "z", "p": "no", "q": 0}),
     "basis[3] (z)"),
    (lambda d: d["basis"].append({"p": 0, "q": 0}), "missing basis name"),
    (lambda d: d.update(unit="nope"), "unit"),
    (lambda d: d["d"].append(["x", "nope", "1"]), "unknown basis element"),
    (lambda d: d["d"].append(["e", "x", "1"]), "violates the shift"),
    (lambda d: d["d"].append(["x", "y", "bogus"]), "invalid rational"),
    (lambda d: d["product"].append(["e", "e", "e"]), "expected [x, y"),
    (lambda d: d["product"].append(["e", "e", "zz", "1"]),
     "unknown basis element"),
])
def test_schema_errors_carry_locations(mutate, fragment):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        serialize.algebra_from_json(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize("mutate,location", [
    # x -> y keeps d's shift; e -> x does not
    (lambda d: d["d"].extend([["e", "x", "1"], ["x", "nope", "1"]]), "d[1]"),
    (lambda d: d["delta"].extend([["e", "e", "0"], ["x", "y", "2"]]),
     "delta[1]"),
    (lambda d: d.update(gram=[["x", "x", "2"], ["x", "y", "1"], ["e"]]),
     "gram[1]"),
    (lambda d: d.update(unit="y"), "unit"),
], ids=["d", "delta", "gram", "unit"])
def test_schema_errors_name_their_row(mutate, location):
    # each error is raised at the row that makes it, before any later row
    # is read, even a malformed one
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        serialize.algebra_from_json(doc)
    assert err.value.location == location


def test_zero_entries_off_the_shift_are_accepted():
    doc = _minimal_doc()
    doc["d"].append(["e", "x", "0"])
    doc["delta"].append(["x", "y", "0/5"])
    algebra, _ = serialize.algebra_from_json(doc)
    assert algebra.d.entries == {"x": {"y": F(1)}}
    assert not algebra.delta.entries


def test_repeated_scalar_texts_keep_values_and_error_locations():
    doc = _minimal_doc()
    doc["product"][1][3] = 1          # a JSON number with the text "1"
    doc["product"].append(["x", "x", "x", "3/6"])
    algebra, _ = serialize.algebra_from_json(doc)
    assert algebra.product[("e", "x")] == {"x": F(1)}
    assert algebra.product[("x", "x")] == {"x": F(1, 2)}
    # an exponent is rejected at the first row that carries it
    doc["product"][3][3] = "1e3"
    doc["product"].append(["y", "e", "y", "1e3"])
    with pytest.raises(SchemaError) as err:
        serialize.algebra_from_json(doc)
    assert err.value.location == "product[3]"


def test_footprint_conventions():
    doc = {"schema": 1, "n": 3, "convention": "polyvector",
           "occupied": [{"p": 1, "q": 1, "dim": 2}]}
    fp = footprint_from_json(doc)
    assert fp.dim_at(1, 1) == 2
    forms = {"schema": 1, "n": 3, "convention": "forms",
             "occupied": [{"p": 2, "q": 1, "dim": 2}]}
    fp2 = footprint_from_json(forms)
    assert fp2.dim_at(1, 1) == 2        # p is reflected to n - p
    with pytest.raises(SchemaError):
        footprint_from_json({"schema": 1, "n": 3, "convention": "sideways",
                             "occupied": []})
    with pytest.raises(SchemaError):
        footprint_from_json({"schema": 1, "n": 0, "occupied": []})
    round_tripped = footprint_from_json(footprint_to_json(fp))
    assert round_tripped.occupied == fp.occupied and round_tripped.n == fp.n


def test_table_serialization_marks_kinds():
    m = search_nonformal(seed=0)
    from bvhy.engine import build_operation_table
    table = build_operation_table(m.algebra, m.transfer_data(), 3)
    doc = serialize.table_to_json(table)
    kinds = {(op["arity"], op["brackets"]): op["kind"]
             for op in doc["operations"]}
    assert kinds[(2, 0)] == "strict"
    assert kinds[(3, 1)] == "strict"
    assert kinds[(3, 0)] == "higher"
    higher = [op for op in doc["operations"]
              if (op["arity"], op["brackets"]) == (3, 0)][0]
    assert higher["entries"]            # the witness survives serialization
    for entry in higher["entries"]:
        assert len(entry) == 3 + 2      # k inputs, output, coefficient


# JSON leaves, strings with control characters, non-ASCII text and lone
# surrogates among them, integers past 64 bits and non-finite floats;
# containers of every kind json writes as an array or an object
_STRINGS = st.text(st.characters(exclude_categories=()), max_size=6) | \
    st.sampled_from(["", "\x00\x1f\x7f", "\ud800", "\udfff\ud83d", "é€😀",
                     "\\\"/\b\f\n\r\t"])
_LEAVES = _STRINGS | st.integers() | st.integers(-2 ** 200, 2 ** 200) | \
    st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple) |
    st.dictionaries(_STRINGS, inner, max_size=4) |
    st.builds(Bidegree, st.integers(), st.integers())), max_leaves=24)
_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=3)


@settings(max_examples=400, deadline=None, database=None)
@given(_VALUES)
def test_dump_is_json_dumps_byte_for_byte(value):
    assert serialize.dump(value) == \
        json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=400, deadline=None, database=None)
@given(_VALUES, st.sampled_from([None, 2]), _SPACE, _SPACE)
def test_loads_is_json_loads(value, indent, before, after):
    text = before + json.dumps(value, indent=indent) + after
    # repr tells 1 from 1.0 and True, and shows NaN, which is no equal of
    # itself
    assert repr(serialize.loads(text)) == repr(json.loads(text))


def _error(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{call.__name__} raised nothing")


_BAD_TEXTS = {"empty": "", "spaces": "  ", "open": "{", "trailing-comma": "[1,]",
              "extra-data": "1 2", "bom": "\ufeff{}", "deep": "[" * 100_000,
              "long-integer": "9" * 5000}


@pytest.mark.parametrize("text", _BAD_TEXTS.values(), ids=_BAD_TEXTS)
def test_loads_raises_what_json_loads_raises(text):
    assert _error(serialize.loads, text) == _error(json.loads, text)


def test_dump_raises_or_writes_what_json_dumps_does():
    cycle = []
    cycle.append(cycle)
    for bad in ({"a": {1, 2}}, [object()], cycle, {"a": 1, 2: "b"}):
        assert _error(serialize.dump, bad) == \
            _error(json.dumps, bad, indent=2, sort_keys=True)
    # keys json turns into text, written by json itself
    value = {1: [2.5, None], 2: {True: "x"}}
    assert serialize.dump(value) == \
        json.dumps(value, indent=2, sort_keys=True) + "\n"


# A fresh interpreter, where nothing has loaded json; "plain" runs on the C
# accelerator, "no-accelerator" blocks it, so that serialize falls back to
# json's pure-Python scanner and quoting.  The errors of json.loads are
# taken there too, after serialize's.
_FRESH_PROBE = """
import sys
if sys.argv[1] == "no-accelerator":
    sys.modules["_json"] = None
from bvhy import serialize


def errors(loads):
    found = []
    for text in TEXTS:
        try:
            loads(text)
        except Exception as exc:
            found.append((type(exc).__name__, str(exc)))
    return found


found = [serialize.dump(DOC), repr(serialize.loads(serialize.dump(DOC))),
         "json" in sys.modules, errors(serialize.loads)]
import json
print(repr(found + [errors(json.loads)]))
"""


@pytest.mark.parametrize("mode", ["plain", "no-accelerator"])
def test_reader_and_writer_in_a_fresh_interpreter(mode):
    doc = {"b": [1, -2 ** 70, 0.5, 1e-7], "a": "\u00e9\x01",
           "c": {"z": None, "y": [True, False, []], "x": {}}}
    texts = ["{", "[1,]", "1 2", '{"a" 1}', "[" * 100_000]
    probe = _FRESH_PROBE.replace("DOC", repr(doc)).replace(
        "TEXTS", repr(texts))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(serialize.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe, mode],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    dumped, loaded, json_loaded, ours, theirs = \
        ast.literal_eval(proc.stdout)
    assert dumped == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert loaded == repr(json.loads(dumped))
    # only the fallback imports json up front; a C scanner's error is
    # json's once json.loads has raised it
    assert json_loaded == (mode == "no-accelerator")
    assert len(ours) == len(texts) and ours == theirs

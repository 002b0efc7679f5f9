"""JSON schemas: round trips, deterministic output, located error messages."""

import json
from fractions import Fraction

import pytest

from certify_oracle import footprint_to_json
from bvhy import serialize
from bvhy.certify import footprint_from_json
from bvhy.elements import nonzero_entries
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

"""Versioned JSON formats for algebras and operation tables (footprints:
``certify.footprint_from_json``).

Scalars are decimal-rational strings ("3/2", "-1", "5").  All documents
carry ``"schema": 1``.  Serialization is deterministic (sorted keys,
sorted entry lists) so exports are diffable and byte-stable.

``algebra_from_json`` reads the rows of ``d``, ``delta``, the product and
the Gram form straight into integer tables keyed by basis index
(``bv.Table``, ``hodge.InnerProduct``).  ``read_scalar`` reads the two
forms every document ``bvhy`` writes uses, an integer and a fraction of
ASCII digits, with ``int``; any other text goes to ``parse_scalar``, so
the same texts are accepted, with the same values and errors, and only
those load ``fractions``.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, Table, to_table
from .graded import Bidegree, BigradedSpace
from .hodge import InnerProduct
from .reporting import ratio_text

if TYPE_CHECKING:
    from fractions import Fraction

    from .engine import OperationTable

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or out-of-schema input; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


def parse_scalar(text, location: str) -> Fraction:
    from fractions import Fraction
    # Fraction expands an exponent in full, so "1e1000000000" would stall
    if "e" not in str(text).lower():
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"invalid rational scalar {text!r}", location)


def read_scalar(text, location: str) -> Tuple[int, int]:
    """``parse_scalar``'s value as ``(numerator, denominator)`` in lowest
    terms.  A JSON integer, or a text ``[+-]?digits`` or
    ``[+-]?digits/digits`` of ASCII digits between ASCII whitespace, is
    read with ``int``; ``str.isdigit`` alone would pass "²", which ``int``
    refuses.  Everything else, and an ``int`` refusal (a digit string past
    the conversion limit), goes to ``parse_scalar``."""
    if type(text) is int:
        return text, 1
    if type(text) is str:
        num, slash, den = text.strip(" \t\n\r\f\v").partition("/")
        den = den if slash else "1"
        digits = num[1:] if num[:1] in ("+", "-") else num
        if all(s.isascii() and s.isdigit() for s in (digits, den)) \
                and den.strip("0"):
            try:
                p, q = int(num), int(den)
            except ValueError:
                pass
            else:
                g = gcd(p, q)
                return p // g, q // g
    value = parse_scalar(text, location)
    return value.numerator, value.denominator


def _scalar_reader():
    """``read_scalar`` memoized by text, on which alone a value depends,
    for the rows of one document; a text that fails is not stored, so it
    raises again at its own location."""
    memo: Dict[str, Tuple[int, int]] = {}

    def read(text, location: str) -> Tuple[int, int]:
        if type(text) is not str:
            return read_scalar(text, location)
        value = memo.get(text)
        if value is None:
            value = memo[text] = read_scalar(text, location)
        return value
    return read


def _require(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise SchemaError(message, location)


def _is_int(value) -> bool:
    # bool is a subclass of int, but true/false are not bidegrees or sizes
    return isinstance(value, int) and not isinstance(value, bool)


def _require_name(space: BigradedSpace, name, location: str) -> None:
    # a list or object name is unhashable, so test the type before lookup
    _require(isinstance(name, str) and name in space.bidegree,
             f"unknown basis element {name!r}", location)


def _require_new(seen: set, key: tuple, location: str) -> None:
    if key in seen:
        raise SchemaError(f"repeats the entry {list(key)} of an earlier row",
                          location)
    seen.add(key)


def _check_schema(doc: dict, location: str) -> None:
    _require(isinstance(doc, dict), "document must be a JSON object", location)
    _require(doc.get("schema") == SCHEMA_VERSION,
             f"unsupported schema {doc.get('schema')!r}", location)


def _rows(doc: dict, key: str) -> list:
    """The entry list under ``key``; a missing key means no entries."""
    rows = doc.get(key, [])
    _require(isinstance(rows, list), f"{key} must be a list of entries", key)
    return rows


def _map_entries(doc, key: str, space: BigradedSpace, shift: Bidegree,
                 read) -> Table:
    """The map under ``key`` as a ``bv.Table``.  Its nonzero entries are
    kept in row order by source, the source in order of its first nonzero
    row; a nonzero entry off ``shift`` is an error at its row."""
    index, deg = space.index, space.bidegree
    cols: Dict[int, Dict[int, Tuple[int, int]]] = {}
    seen: set = set()
    for i, row in enumerate(_rows(doc, key)):
        loc = f"{key}[{i}]"
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [source, target, scalar]", loc)
        src, tgt, val = row
        _require_name(space, src, loc)
        _require_name(space, tgt, loc)
        val = read(val, loc)
        _require_new(seen, (src, tgt), loc)
        if val[0]:
            if deg[tgt] != deg[src] + shift:
                raise SchemaError(f"entry {src!r} -> {tgt!r} violates the "
                                  f"shift {tuple(shift)}", loc)
            cols.setdefault(index[src], {})[index[tgt]] = val
    return to_table(cols, shift)


def algebra_from_json(doc: dict) -> Tuple[BVAlgebra, Optional[InnerProduct]]:
    _check_schema(doc, "algebra")
    basis = []
    raw = doc.get("basis")
    _require(isinstance(raw, list) and raw, "missing or empty basis", "basis")
    for i, entry in enumerate(raw):
        loc = f"basis[{i}]"
        _require(isinstance(entry, dict), "expected an object", loc)
        name = entry.get("name")
        _require(isinstance(name, str) and name, "missing basis name", loc)
        loc = f"basis[{i}] ({name})"
        p, q = entry.get("p"), entry.get("q")
        _require(_is_int(p) and _is_int(q),
                 f"malformed bidegree p={p!r} q={q!r}", loc)
        basis.append((name, Bidegree(p, q)))
    try:
        space = BigradedSpace(basis)
    except ValueError as exc:
        raise SchemaError(str(exc), "basis") from None

    unit = doc.get("unit")
    _require(isinstance(unit, str) and unit in space.bidegree,
             f"unit {unit!r} is not a basis element", "unit")
    _require(space.bidegree[unit] == Bidegree(0, 0),
             "unit must sit at bidegree (0,0)", "unit")

    read = _scalar_reader()
    d = _map_entries(doc, "d", space, Bidegree(0, 1), read)
    delta = _map_entries(doc, "delta", space, Bidegree(-1, 0), read)

    # (index[x], index[y]) -> {index[target]: (numerator, denominator)};
    # zero values are stored too, so that a repeated row is found, and
    # to_table drops them
    product: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
    index = space.index
    deg = {n: tuple(b) for n, b in space.bidegree.items()}
    for i, row in enumerate(_rows(doc, "product")):
        loc = f"product[{i}]"
        _require(isinstance(row, list) and len(row) == 4,
                 "expected [x, y, target, scalar]", loc)
        x, y, tgt, val = row
        try:
            (px, qx), (py, qy), dt = deg[x], deg[y], deg[tgt]
        except (KeyError, TypeError):
            # an unknown or unhashable name: report the first one
            for nm in (x, y, tgt):
                _require_name(space, nm, loc)
        if (px + py, qx + qy) != dt:
            raise SchemaError(f"target {tgt!r} at {dt} breaks bidegree "
                              f"additivity: {deg[x]} + {deg[y]}", loc)
        val = read(val, loc)
        col = product.setdefault((index[x], index[y]), {})
        t = index[tgt]
        if t in col:
            raise SchemaError(f"repeats the entry {[x, y, tgt]} of an "
                              f"earlier row", loc)
        col[t] = val

    algebra = BVAlgebra(space, d, delta, to_table(product), unit)
    gram = None
    if "gram" in doc:
        gram = gram_from_entries(doc["gram"], space)
    return algebra, gram


def gram_from_entries(raw, space: BigradedSpace) -> InnerProduct:
    """The Gram form of the rows ``[x, y, scalar]``, as integer blocks; 1 on
    the diagonal where no row sets it."""
    _require(isinstance(raw, list), "gram must be a list of entries", "gram")
    read, deg = _scalar_reader(), space.bidegree
    cells: Dict[Bidegree, list] = {}
    seen: set = set()
    for i, row in enumerate(raw):
        loc = f"gram[{i}]"
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [x, y, scalar]", loc)
        x, y, val = row
        for nm in (x, y):
            _require_name(space, nm, loc)
        val = read(val, loc)
        # the form is symmetric, so [x, y] and [y, x] set the same entry
        _require_new(seen, (x, y) if x <= y else (y, x), loc)
        if deg[x] != deg[y]:
            raise SchemaError(f"gram entry ({x},{y}) crosses bidegrees", loc)
        cells.setdefault(deg[x], []).append((x, y, val))
    blocks = {}
    for at, rows in cells.items():
        names = space.names_at(at)
        pos = dict(zip(names, range(len(names))))
        den = lcm(*[q for _x, _y, (_p, q) in rows])
        m = linalg.scalar(len(names), den)[0]
        for x, y, (p, q) in rows:
            m[pos[x]][pos[y]] = m[pos[y]][pos[x]] = p * (den // q)
        blocks[at] = m, den
    try:
        return InnerProduct(space, blocks)
    except ValueError as exc:
        raise SchemaError(str(exc), "gram") from None


def algebra_to_json(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> dict:
    space, (d, delta, product, _) = a.space, a.tables
    names = space.names

    def map_rows(m: Table) -> list:
        return sorted([names[s], names[t], ratio_text(v, m.den)]
                      for s, col in m.cols.items() for t, v in col.items())
    doc = {
        "schema": SCHEMA_VERSION,
        "basis": [{"name": n, "p": space.bidegree[n].p,
                   "q": space.bidegree[n].q} for n in names],
        "unit": a.unit,
        "d": map_rows(d),
        "delta": map_rows(delta),
        "product": sorted(
            [names[x], names[y], names[t], ratio_text(v, product.den)]
            for (x, y), col in product.cols.items() for t, v in col.items()),
    }
    if ip is not None:
        gram = []
        for deg in space.occupied_bidegrees():
            at = space.names_at(deg)
            rows, den = ip.block(deg)
            for i in range(len(at)):
                for j in range(i, len(at)):
                    if rows[i][j] != (den if i == j else 0):
                        gram.append([at[i], at[j], ratio_text(rows[i][j], den)])
        if gram:
            doc["gram"] = sorted(gram)
    return doc


def table_to_json(table: OperationTable) -> dict:
    H = table.td.cohomology
    ops = []
    for (k, l), constants in sorted(table.ops.items()):
        entries = sorted(
            list(key) + [name, str(v)]
            for key, col in constants.items() for name, v in col.items())
        ops.append({"arity": k, "brackets": l,
                    "kind": "strict" if l == k - 2 else "higher",
                    "entries": entries})
    return {
        "schema": SCHEMA_VERSION,
        "cohomology": [{"name": n, "p": H.bidegree[n].p, "q": H.bidegree[n].q}
                       for n in H.names],
        "operations": ops,
    }


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

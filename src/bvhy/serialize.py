"""Versioned JSON formats for algebras, footprints, and operation tables.

Scalars are decimal-rational strings ("3/2", "-1", "5").  All documents
carry ``"schema": 1``.  Serialization is deterministic (sorted keys,
sorted entry lists) so exports are diffable and byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .bv import BVAlgebra
from .graded import Bidegree, BigradedSpace, GradedMap
from .hodge import InnerProduct

if TYPE_CHECKING:
    from .certify import Footprint
    from .engine import OperationTable

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or out-of-schema input; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


def scalar_to_str(x: Fraction) -> str:
    return str(x)


def parse_scalar(text, location: str) -> Fraction:
    # Fraction expands an exponent in full, so "1e1000000000" would stall
    if "e" not in str(text).lower():
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"invalid rational scalar {text!r}", location)


def _scalar_reader():
    """``parse_scalar`` memoized by ``str(text)``, on which alone a value
    depends, for the rows of one document; a text that fails is not
    stored, so it raises again at its own location."""
    memo: Dict[str, Fraction] = {}

    def read(text, location: str) -> Fraction:
        key = str(text)
        value = memo.get(key)
        if value is None:
            value = memo[key] = parse_scalar(text, location)
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
    _require(key not in seen, f"repeats the entry {list(key)} of an earlier row",
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
                 read) -> GradedMap:
    out = GradedMap.zero(space, space, shift)
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
        out.set_entry(src, tgt, val)
    bad = out.validate_shift()
    if bad:
        s, t = bad[0]
        raise SchemaError(
            f"entry {s!r} -> {t!r} violates the shift {tuple(shift)}", key)
    return out


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

    read = _scalar_reader()
    d = _map_entries(doc, "d", space, Bidegree(0, 1), read)
    delta = _map_entries(doc, "delta", space, Bidegree(-1, 0), read)

    product: Dict[Tuple[str, str], Dict[str, Fraction]] = {}
    seen: set = set()
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
        _require_new(seen, (x, y, tgt), loc)
        product.setdefault((x, y), {})[tgt] = val

    try:
        algebra = BVAlgebra(space, d, delta, product, unit)
    except ValueError as exc:
        raise SchemaError(str(exc), "algebra") from None

    gram = None
    if "gram" in doc:
        gram = gram_from_entries(doc["gram"], space)
    return algebra, gram


def gram_from_entries(raw, space: BigradedSpace) -> InnerProduct:
    _require(isinstance(raw, list), "gram must be a list of entries", "gram")
    entries = []
    seen: set = set()
    read = _scalar_reader()
    for i, row in enumerate(raw):
        loc = f"gram[{i}]"
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [x, y, scalar]", loc)
        x, y, val = row
        for nm in (x, y):
            _require_name(space, nm, loc)
        val = read(val, loc)
        # the form is symmetric, so [x, y] and [y, x] set the same entry
        _require_new(seen, tuple(sorted((x, y))), loc)
        entries.append((x, y, val))
    try:
        return InnerProduct.from_entries(space, entries)
    except ValueError as exc:
        raise SchemaError(str(exc), "gram") from None


def algebra_to_json(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "basis": [{"name": n, "p": a.space.bidegree[n].p,
                   "q": a.space.bidegree[n].q} for n in a.space.names],
        "unit": a.unit,
        "d": [[s, t, scalar_to_str(v)] for s, t, v in a.d.nonzero_entries()],
        "delta": [[s, t, scalar_to_str(v)]
                  for s, t, v in a.delta.nonzero_entries()],
        "product": sorted(
            [x, y, t, scalar_to_str(v)]
            for (x, y), col in a.product.items() for t, v in col.items()),
    }
    if ip is not None:
        gram = []
        for deg in a.space.occupied_bidegrees():
            names = a.space.names_at(deg)
            rows, den = ip.block(deg)
            for i in range(len(names)):
                for j in range(i, len(names)):
                    if rows[i][j] != (den if i == j else 0):
                        gram.append([names[i], names[j], scalar_to_str(
                            Fraction(rows[i][j], den))])
        if gram:
            doc["gram"] = sorted(gram)
    return doc


def footprint_from_json(doc: dict) -> Footprint:
    from .certify import Footprint
    _check_schema(doc, "footprint")
    n = doc.get("n")
    _require(_is_int(n) and n >= 1, f"invalid dimension n={n!r}", "n")
    convention = doc.get("convention", "polyvector")
    _require(convention in ("forms", "polyvector"),
             f"unknown convention {convention!r}", "convention")
    occupied: Dict[Bidegree, int] = {}
    raw = doc.get("occupied")
    _require(isinstance(raw, list), "missing occupied list", "occupied")
    for i, entry in enumerate(raw):
        loc = f"occupied[{i}]"
        _require(isinstance(entry, dict), "expected an object", loc)
        p, q, dim = entry.get("p"), entry.get("q"), entry.get("dim")
        _require(_is_int(p) and _is_int(q),
                 f"malformed bidegree p={p!r} q={q!r}", loc)
        _require(_is_int(dim) and dim >= 0,
                 f"invalid dimension {dim!r}", loc)
        if convention == "forms":
            # contraction with the volume form reverses the first index
            p = n - p
        deg = Bidegree(p, q)
        occupied[deg] = occupied.get(deg, 0) + dim
    return Footprint(n, occupied)


def table_to_json(table: OperationTable) -> dict:
    H = table.td.cohomology
    ops = []
    for (k, l), constants in sorted(table.ops.items()):
        entries = sorted(
            list(key) + [name, scalar_to_str(v)]
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
    # failure witnesses may carry Fractions; render them as strings
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

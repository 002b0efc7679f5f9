"""Versioned JSON formats for algebras and operation tables (footprints:
``certify.footprint_from_json``), and the JSON text they are read from and
written as.

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

``loads`` and ``dump`` are ``json.loads`` and ``json.dumps(doc, indent=2,
sort_keys=True) + "\n"`` without the ``json`` package, whose import (six
regular expressions) is a share of every command process, and whose
indenting encoder runs in pure Python.  ``loads`` runs the scanner
``json.loads`` runs, and hands what it cannot take whole to ``json``,
imported only then, so every error in bad input is ``json``'s own.
``dump`` writes with the same text functions in the same order of type
tests; it takes the string-keyed JSON values every ``bvhy`` document is
made of, and anything else is its own ``TypeError``.
"""

from __future__ import annotations

import os
import sys
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, Table, to_table
from .graded import Bidegree, BigradedSpace
from .hodge import InnerProduct
from .reporting import ratio_text

try:
    # the built-in module: hashlib would load OpenSSL too, several ms of
    # every process's start-up.  CPython 3.12 renamed it _sha2.
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

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


def _require_new(filled: dict, key, names: list, location: str) -> None:
    if key in filled:
        raise SchemaError(f"repeats the entry {names} of an earlier row",
                          location)


def _check_schema(doc: dict, location: str) -> None:
    _require(isinstance(doc, dict), "document must be a JSON object", location)
    schema = doc.get("schema")
    _require(_is_int(schema) and schema == SCHEMA_VERSION,
             f"unsupported schema {schema!r}", location)


def _rows(doc: dict, key: str) -> list:
    """The entry list under ``key``; a missing key means no entries."""
    rows = doc.get(key, [])
    _require(isinstance(rows, list), f"{key} must be a list of entries", key)
    return rows


def _map_entries(doc, key: str, space: BigradedSpace, shift: Bidegree,
                 read) -> Table:
    """The map under ``key`` as a ``bv.Table``, its columns in order of
    their first row; a zero entry stays in its column, so that a repeated
    row is found, until ``to_table`` drops it.  A nonzero entry off
    ``shift`` is an error at its row."""
    index, deg = space.index, space.bidegree
    cols: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for i, row in enumerate(_rows(doc, key)):
        loc = f"{key}[{i}]"
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [source, target, scalar]", loc)
        src, tgt, val = row
        _require_name(space, src, loc)
        _require_name(space, tgt, loc)
        val = read(val, loc)
        col, t = cols.setdefault(index[src], {}), index[tgt]
        _require_new(col, t, [src, tgt], loc)
        if val[0] and deg[tgt] != deg[src] + shift:
            raise SchemaError(f"entry {src!r} -> {tgt!r} violates the "
                              f"shift {tuple(shift)}", loc)
        col[t] = val
    return to_table(cols, shift)


def algebra_from_json(doc: dict) -> Tuple[BVAlgebra, Optional[InnerProduct]]:
    _check_schema(doc, "algebra")
    basis: Dict[str, Bidegree] = {}
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
        _require(name not in basis, f"duplicate basis name {name!r}", loc)
        basis[name] = Bidegree(p, q)
    space = BigradedSpace(basis.items())

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
        col, t = product.setdefault((index[x], index[y]), {}), index[tgt]
        if t in col:  # _require_new, inline: a call per row costs 3%
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
    cells: Dict[Bidegree, Dict[Tuple[str, str], Tuple[int, int]]] = {}
    for i, row in enumerate(raw):
        loc = f"gram[{i}]"
        _require(isinstance(row, list) and len(row) == 3,
                 "expected [x, y, scalar]", loc)
        x, y, val = row
        for nm in (x, y):
            _require_name(space, nm, loc)
        val = read(val, loc)
        # the form is symmetric, so [x, y] and [y, x] set the entry (min, max)
        cell, pair = cells.setdefault(deg[x], {}), (min(x, y), max(x, y))
        _require_new(cell, pair, list(pair), loc)
        if deg[x] != deg[y]:
            raise SchemaError(f"gram entry ({x},{y}) crosses bidegrees", loc)
        cell[pair] = val
    blocks = {}
    for at, cell in cells.items():
        names = space.names_at(at)
        pos = dict(zip(names, range(len(names))))
        den = lcm(*[q for _p, q in cell.values()])
        m = linalg.scalar(len(names), den)[0]
        for (x, y), (p, q) in cell.items():
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
    names = H.names
    ops = []
    for k, l in sorted(table.tables):
        constants, den = table.tables[k, l]
        entries = sorted(
            [*map(names.__getitem__, key), names[t], ratio_text(v, den)]
            for key, col in constants.items() for t, v in col.items())
        ops.append({"arity": k, "brackets": l,
                    "kind": "strict" if l == k - 2 else "higher",
                    "entries": entries})
    return {
        "schema": SCHEMA_VERSION,
        "cohomology": [{"name": n, "p": H.bidegree[n].p, "q": H.bidegree[n].q}
                       for n in H.names],
        "operations": ops,
    }


class _Decoding:
    """The settings ``json.loads`` decodes with, as its scanner reads them."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


try:
    from _json import encode_basestring_ascii as _quote, make_scanner
    _scan = make_scanner(_Decoding)
except ImportError:
    # no C accelerator: json's own pure-Python scanner and quoting
    from json.decoder import JSONDecoder
    from json.encoder import encode_basestring_ascii as _quote
    _scan = JSONDecoder().scan_once

_SPACE = " \t\n\r"
# float.__repr__ of the values JSON has no number for, as json writes them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def loads(text: str):
    """``json.loads(text)``.  A value between JSON whitespace is read by
    the scanner alone; any other text (empty, a BOM, trailing data, an
    error) goes to ``json.loads``, which raises its own error."""
    try:
        value, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
    except (StopIteration, ValueError, RecursionError, SystemError):
        # nothing at the start, a JSONDecodeError, an integer past the digit
        # limit, deep nesting; on CPython 3.11 the C scanner's own error is
        # a SystemError until json.decoder, where it finds
        # JSONDecodeError, is loaded
        pass
    else:
        if not text[end:].strip(_SPACE):
            return value
    import json
    return json.loads(text)


def dump(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, byte for byte,
    for a document of JSON values under string keys, as every document
    ``bvhy`` writes is.  Another key or value is a ``TypeError``, and a
    cycle a ``RecursionError``."""
    parts = []
    _encode(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _encode(value, out: list, newline: str) -> None:
    """Append the text of ``value`` to ``out``, its nested lines starting
    with ``newline`` and two more spaces: ``json.encoder._make_iterencode``
    with ``indent=2`` and ``sort_keys=True``, in its order of type tests.
    A string item, the common leaf, is quoted in the loop."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            if isinstance(item, str):
                out.append(_quote(item))
            else:
                _encode(item, out, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in sorted(value.items()):
            out.extend((inner, _quote(key), ": "))
            if isinstance(item, str):
                out.append(_quote(item))
            else:
                _encode(item, out, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"{type(value).__name__} is not a JSON type")


def load(path: str):
    """The document at ``path`` and the sha256 of the bytes it was parsed
    from; the file is read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return loads(data.decode("utf-8")), sha256(data).hexdigest()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}", path) from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}", path) from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or deep nesting
        raise SchemaError(f"invalid JSON: {exc}", path) from None
    except OSError as exc:
        raise SchemaError(f"cannot read: {exc.strerror}", path) from None


def emit(doc: dict, out: Optional[str] = None) -> None:
    write(dump(doc), out)


def write(text: str, out: Optional[str] = None) -> None:
    """Write ``text`` to the file ``out``, or to stdout and flush it, so
    that a stdout that takes no more (a closed pipe) fails here rather than
    in the flush at exit; stdout then points at the null device."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if out:
            raise SchemaError(f"cannot write {out}: {exc.strerror}",
                              "out") from None
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise SchemaError(f"cannot write: {exc.strerror}", "stdout") from None

"""Finite-dimensional dg BV-algebras and exact axiom checking.

A ``BVAlgebra`` bundles a bigraded space, a differential of shift (0,1),
an odd operator ``delta`` of shift (-1,0), a graded-commutative product
given by structure constants, and a unit at bidegree (0,0).

The bracket is not an input: it is derived from ``delta`` and the product as

    [x, y] = delta(x y) - delta(x) y - (-1)^|x| x delta(y)

so that the order-2 compatibility checked in ``check_bv_axioms`` is
automatically the right one.

The algebra holds ``d``, ``delta``, the product and the bracket (its
nonzero values on basis pairs) as ``Table``s: structure constants keyed by
basis index, integers over one denominator per table, the product's
missing mirror entries filled in by graded commutativity.
``serialize.algebra_from_json`` reads a document's rows straight into
them; ``BVAlgebra(space, d, delta, product, unit)`` with ``GradedMap``s
and a ``{(x, y): {t: Fraction}}`` product converts them.  The
``Fraction`` views ``d``, ``delta``, ``product`` and ``brackets``, keyed by
names, are made on first read (``graded.rational``); the checks read none.

Each identity the checks compare is homogeneous in the tables
(commutativity of degree 1 in the product, associativity of degree 2 on
both sides, the derivation and Leibniz rules of degree 1 in the product
and 1 in ``d`` or the bracket in every term), so comparing integer sides
decides exactly what comparing rational sides would.  The bracket's
denominator is the product of the product's and ``delta``'s.  Their signs
are the ints 1 and -1.

The trilinear checks visit only the tuples reached by one support index,
built with the algebra: ``partners[u]``, the ``v`` with ``(u, v)`` a
product key, in key order (keys are closed under swapping, so it is the
left index too), the ``d`` and ``delta`` columns, and the bracket table.
Any other tuple satisfies the identity under test as 0 = 0.

Every witness is named in basis-index order, so it is a property of the
algebra, not of a document's row order or name spelling.  Each trilinear
item scans its tuples once, in basis-index order, and its witness is the
first failing tuple of that scan.  Once
graded commutativity has passed (odd squares included), each scan keeps
one tuple per symmetry orbit.  For a graded-commutative product the
associators satisfy ``A(z, y, x) = ±A(x, y, z)`` and ``±A(x, y, z) ±
A(y, z, x) ± A(z, x, y) = 0``, so the orders whose last name has the
largest basis index decide all six, repeated names included; the
derivation defect has ``D(y, x) = ±D(x, y)``; and the Leibniz defect has
``L(x, z, y) = (-1)^(|y||z|) L(x, y, z)``.  When commutativity fails, the
same scans run with no cut.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import lcm
from typing import Dict, List, NamedTuple, Tuple

from .graded import (Bidegree, BigradedSpace, BlockMap, add, compose,
                     rational)
from .reporting import CheckReport


class Table(NamedTuple):
    """Structure constants keyed by basis index, as integers over one
    positive denominator: ``cols[key][t] / den`` is the coefficient of
    basis element ``t`` in the image of ``key``, a source index for a map
    of bidegree ``shift`` and an index pair for the product and the
    bracket."""
    cols: Dict
    den: int
    shift: Bidegree = Bidegree(0, 0)


class Tables(NamedTuple):
    """The algebra's tables; the bracket table holds the nonzero brackets
    of basis pairs."""
    d: Table
    delta: Table
    product: Table
    brackets: Table


def to_table(cols: Dict, shift: Bidegree = Bidegree(0, 0)) -> Table:
    """``cols`` of ``(numerator, denominator)`` pairs as a ``Table`` over
    the lcm of the denominators; zero constants, and keys left with none,
    are dropped."""
    den = lcm(*{q for col in cols.values() for _p, q in col.values()})
    out = {}
    for key, col in cols.items():
        ints = {t: p * (den // q) for t, (p, q) in col.items() if p}
        if ints:
            out[key] = ints
    return Table(out, den, shift)


class BVAlgebra:
    def __init__(self, space: BigradedSpace, d, delta, product, unit: str):
        """``d``, ``delta`` and ``product`` are ``Table``s, or ``GradedMap``s
        and a ``{(x, y): {t: Fraction}}`` product of basis names, which are
        converted into ``Table``s.  The product table's missing mirror
        entries are filled in, in place."""
        if unit not in space.bidegree:
            raise ValueError(f"unit {unit!r} not in basis")
        if space.bidegree[unit] != Bidegree(0, 0):
            raise ValueError("unit must sit at bidegree (0,0)")
        if not isinstance(product, Table):
            from .elements import fraction_tables
            d, delta, product = fraction_tables(space, d, delta, product)
        self.space, self.unit = space, unit
        self.parity = [space.bidegree[n].total % 2 for n in space.names]
        # if both orders are given they are kept; the commutativity item
        # of check_bv_axioms surfaces any inconsistency
        cols, par = product.cols, self.parity
        for (x, y) in list(cols):
            if x != y and (y, x) not in cols:
                cols[y, x] = {t: -v for t, v in cols[x, y].items()} \
                    if par[x] and par[y] else dict(cols[x, y])
        self.partners: Dict[int, List[int]] = {}
        for (u, v) in cols:
            self.partners.setdefault(u, []).append(v)
        self.tables = Tables(d, delta, product,
                             _bracket_table(self, product, delta))
        # d and delta as the checks compose them, made once per algebra
        self.blocks: Tuple[BlockMap, BlockMap] = (_blocks(space, d),
                                                  _blocks(space, delta))

    # the Fraction views of the tables, keyed by names, made when first read
    d, delta, product, brackets = (cached_property(
        lambda a, k=k: rational().algebra_view(a, k)) for k in Tables._fields)


def _blocks(space: BigradedSpace, t: Table) -> BlockMap:
    """The map ``t`` as a ``BlockMap``: at each source bidegree ``deg``
    some column leaves, the block with rows the targets at deg + shift and
    columns the basis elements at deg."""
    index, blocks = space.index, {}
    for deg in space.occupied_bidegrees():
        cols = [t.cols.get(index[n]) or {} for n in space.names_at(deg)]
        if any(cols):
            targets = [index[n] for n in space.names_at(deg + t.shift)]
            blocks[deg] = [[col.get(i, 0) for col in cols]
                           for i in targets], t.den
    return BlockMap(space, space, t.shift, blocks)


def _add_into(acc: Dict, vec: Dict, c=1) -> None:
    if c != 1:
        vec = {n: c * v for n, v in vec.items()}
    for n, v in vec.items():
        acc[n] = acc[n] + v if n in acc else v


def _left(table: Dict, x, vec: Dict) -> Dict:
    """``table`` on the basis element ``x`` and a vector; ``_right`` on a
    vector and the basis element ``z``.  Keys and values are those of
    ``table``: indices and ints here, names and ``Fraction``s in the
    engine."""
    acc: Dict = {}
    for w, c in vec.items():
        col = table.get((x, w))
        if col:
            _add_into(acc, col, c)
    return acc


def _right(table: Dict, vec: Dict, z) -> Dict:
    acc: Dict = {}
    for w, c in vec.items():
        col = table.get((w, z))
        if col:
            _add_into(acc, col, c)
    return acc


def _apply(cols: Dict, vec: Dict) -> Dict:
    """Apply a linear map given by its columns ``cols[src][tgt]``."""
    acc: Dict = {}
    for n, c in vec.items():
        col = cols.get(n)
        if col:
            _add_into(acc, col, c)
    return acc


def _nonzero(vec: Dict) -> Dict:
    return {n: v for n, v in vec.items() if v != 0}


def _reached(a: BVAlgebra, cols: Dict) -> List[Tuple[int, int]]:
    """``(x, v)`` for ``x`` a column of ``cols``, ``s`` in its support and
    ``v`` in ``partners[s]``."""
    return [(x, v) for x, col in cols.items() for s in col
            for v in a.partners.get(s, ())]


def _defect(a: BVAlgebra, product: Dict, cols: Dict, x: int, y: int) -> Dict:
    """``A(xy) - A(x) y - (-1)^|x| x A(y)`` on basis elements, for the map
    ``A`` with columns ``cols`` and the product columns ``product``: the
    bracket ``[x, y]`` when ``A`` is ``delta``, and the failure of the
    derivation rule when ``A`` is ``d``."""
    acc = _apply(cols, product.get((x, y), {}))
    _add_into(acc, _right(product, cols.get(x, {}), y), -1)
    _add_into(acc, _left(product, x, cols.get(y, {})),
              1 if a.parity[x] else -1)
    return acc


def _bracket_table(a: BVAlgebra, product: Table, delta: Table) -> Table:
    """Nonzero brackets of basis pairs.

    Only pairs where a term of the three-term formula can be nonzero are
    computed: product keys whose column ``delta`` hits, and both orders
    of the pairs ``_reached`` from ``delta``.  With ``delta = 0`` there
    are none, and no product key is read.
    """
    prod, cols = product.cols, delta.cols
    out: Dict = {}
    if cols:
        pairs = dict.fromkeys(key for key, col in prod.items()
                              if any(cols.get(t) for t in col))
        for (x, w) in _reached(a, cols):
            pairs[(x, w)] = pairs[(w, x)] = None
        for (x, w) in pairs:
            acc = _nonzero(_defect(a, prod, cols, x, w))
            if acc:
                out[(x, w)] = acc
    return Table(out, product.den * delta.den, delta.shift)


def check_bv_axioms(a: BVAlgebra) -> CheckReport:
    """Exact verification of all dg BV-algebra axioms.

    The zero-map items are block residuals, witnessed by their first
    nonzero entries by (source index, target index); an entry off its
    map's shift fails the shift item and is left out of them.  Graded
    commutativity names the first key by basis index whose column is not
    its mirror's times the Koszul sign; an odd square ``(n, n)`` is its
    own mirror and fails in that scan, in its place.

    Each trilinear item scans the tuples the support index reaches (see
    the module docstring) once, in basis-index order, and reports the first
    failing tuple as its witness:

    - associativity: ``(x, y, z)`` by the indices of ``(y, x, z)``; that
      is, the middle element ``y`` in basis order, and for each the
      failing ``(x, z)`` with the least indices;
    - derivation: the product keys and both orders of each pair
      ``_reached`` from ``d``, by the indices of ``(x, y)``;
    - order two: the triples where ``[x, yz]``, ``[x, y] z`` or ``y [x,
      z]`` can be nonzero, by the indices of ``(x, y, z)``.

    Once graded commutativity has passed, each scan keeps one tuple per
    symmetry orbit: associativity only ``z >= max(x, y)`` by index, and,
    once the unit law has passed too, no tuple that contains the unit;
    derivation only ``x <= y``; order two only ``y <= z``.  When
    commutativity fails, the scans keep every tuple.
    """
    report = CheckReport("bv-axioms")
    names, tables = a.space.names, a.tables
    deg = [a.space.bidegree[n] for n in names]

    for name, m, shift in (("d has shift (0,1)", tables.d, Bidegree(0, 1)),
                           ("delta has shift (-1,0)", tables.delta,
                            Bidegree(-1, 0))):
        bad = [(names[s], names[t]) for s, col in m.cols.items() for t in col
               if deg[t] != deg[s] + m.shift]
        report.add(name, m.shift == shift and not bad, bad or None)

    d, delta = a.blocks
    report.add_residual("d^2 = 0", compose(d, d))
    report.add_residual("delta^2 = 0", compose(delta, delta))
    report.add_residual("d delta + delta d = 0",
                        add(compose(d, delta), compose(delta, d)))

    product, den = tables.product.cols, tables.product.den
    unit = a.space.index[a.unit]
    witness = next(((a.unit, names[n]) for n in range(len(names))
                    if product.get((unit, n)) != {n: den}), None)
    unit_law = witness is None
    report.add("unit law", unit_law, witness)

    report.add("delta(unit) = 0", not tables.delta.cols.get(unit), a.unit)

    par = a.parity
    keys = sorted(product)
    # keys are closed under swapping (see BVAlgebra.__init__)
    witness = next(((names[x], names[y]) for x, y in keys if product[x, y] != (
        {t: -v for t, v in product[y, x].items()}
        if par[x] and par[y] else product[y, x])), None)
    commutative = witness is None
    report.add("graded commutativity", commutative, witness)

    report.add("associativity", *_check_associativity(
        a, keys, unit_law, commutative))
    report.add("d is a derivation of the product", *_check_derivation(
        a, tables.d.cols, commutative))
    report.add("delta has order <= 2 (bracket Leibniz)", *_check_order_two(
        a, commutative))
    return report


def _check_associativity(a: BVAlgebra, keys: List, unit_law: bool,
                         commutative: bool):
    """``(passed, witness)`` of associativity, ``keys`` being the product
    keys in index order.

    The associators ``A(x, y, z) = (xy)z - x(yz)`` of one middle element
    ``y`` at a time are summed into one accumulator keyed ``(x, z,
    target)``: ``(xy)z`` from the keys ``(x, y)``, ``x(yz)`` from the keys
    ``(y, z)``.  ``right[u]`` and ``left[v]`` are filled from the keys in
    index order, so they are sorted and each cut is a bisect; they exist
    for the unit too, which may be a factor ``w`` of ``xy`` or ``yz``."""
    names, product = a.space.names, a.tables.product.cols
    unit = a.space.index[a.unit] if unit_law and commutative else None
    right: Dict[int, List] = {}
    left: Dict[int, List] = {}
    for u, v in keys:
        if v != unit:
            right.setdefault(u, []).append((v, product[u, v]))
        if u != unit:
            left.setdefault(v, []).append((u, product[u, v]))
    for y in range(len(names)):
        # left[y] holds the same elements as right[y], keys being symmetric
        yrow = right.get(y) if y != unit else None
        if not yrow:
            continue
        acc: Dict[Tuple[int, int, int], int] = {}
        get = acc.get
        for x, xy in left[y]:
            lo = max(x, y) if commutative else 0
            for w, c in xy.items():
                wrow = right.get(w, ())
                for z, wz in wrow[bisect_left(wrow, (lo,)):]:
                    for t, v in wz.items():
                        acc[x, z, t] = get((x, z, t), 0) + c * v
        for z, yz in yrow[bisect_left(yrow, (y if commutative else 0,)):]:
            hi = z if commutative else len(names)
            for w, c in yz.items():
                wrow = left.get(w, ())
                for x, xw in wrow[:bisect_left(wrow, (hi + 1,))]:
                    for t, v in xw.items():
                        acc[x, z, t] = get((x, z, t), 0) - c * v
        bad = [(x, z) for (x, z, _t), v in acc.items() if v]
        if bad:
            x, z = min(bad)
            return False, (names[x], names[y], names[z])
    return True, None


def _check_derivation(a: BVAlgebra, cols: Dict, commutative: bool):
    """``(passed, witness)`` of the derivation rule for ``d``, whose
    columns are ``cols``."""
    product = a.tables.product.cols
    pairs = set(product)
    for (x, v) in _reached(a, cols):
        pairs.update(((x, v), (v, x)))
    if commutative:
        pairs = {(x, y) for (x, y) in pairs if x <= y}
    for (x, y) in sorted(pairs):
        if any(_defect(a, product, cols, x, y).values()):
            return False, (a.space.names[x], a.space.names[y])
    return True, None


def _check_order_two(a: BVAlgebra, commutative: bool):
    """Leibniz rule for the derived bracket:

        [x, yz] = [x,y] z + (-1)^((|x|+1)|y|) y [x,z]

    equivalent to the seven-term order-2 identity given commutativity.
    The live triples come from joining the bracket table with the
    product, so with no nonzero bracket there are none.
    """
    product, brackets = a.tables.product.cols, a.tables.brackets.cols
    if not brackets:
        return True, None
    partners = a.partners
    bracketed: Dict[int, List[int]] = {}
    for (x, w) in brackets:
        bracketed.setdefault(w, []).append(x)
    live = set()
    for (y, z), col in product.items():
        for w in col:
            for x in bracketed.get(w, ()):
                live.add((x, y, z))
    for (x, y), col in brackets.items():
        for u in col:
            for z in partners.get(u, ()):
                live.update(((x, y, z), (x, z, y)))
    if commutative:
        live = {t for t in live if t[1] <= t[2]}

    par = a.parity
    for (x, y, z) in sorted(live):
        acc = _left(brackets, x, product.get((y, z), {}))
        _add_into(acc, _right(product, brackets.get((x, y), {}), z), -1)
        _add_into(acc, _left(product, y, brackets.get((x, z), {})),
                  1 if (par[x] + 1) * par[y] % 2 else -1)
        if any(acc.values()):
            names = a.space.names
            return False, (names[x], names[y], names[z])
    return True, None

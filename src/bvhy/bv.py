"""Finite-dimensional dg BV-algebras and exact axiom checking.

A ``BVAlgebra`` bundles a bigraded space, a differential of shift (0,1),
an odd operator ``delta`` of shift (-1,0), a graded-commutative product
given by structure constants, and a unit at bidegree (0,0).

The bracket is not an input.  For a map ``A`` of parity ``p``, the
derivation defect on basis elements is

    D_A(y, z) = A(y z) - A(y) z - (-1)^(p|y|) y A(z),

and the bracket is that of ``delta``: ``[y, z] = D_delta(y, z)``.  So the
derivation rule for ``d`` says ``D_d = 0``, and ``delta`` has order <= 2
when every ``ad_x = [x, -]`` is a derivation of parity ``|x| + 1``,
``D_ad_x = 0``, which is bracket Leibniz (Getzler, CMP 1994).  One scan,
``_defects``, computes all three.

The algebra holds ``d``, ``delta``, the product and the bracket (its
nonzero values on basis pairs) as ``Table``s: structure constants keyed by
basis index, integers over one denominator per table, the product's
missing mirror entries filled in by graded commutativity.
``serialize.algebra_from_json`` reads a document's rows straight into
them; ``BVAlgebra(space, d, delta, product, unit)`` with ``GradedMap``s
and a ``{(x, y): {t: Fraction}}`` product converts them.  The
``Fraction`` views ``d``, ``delta``, ``product`` and ``brackets``, keyed by
names, are made on first read (``graded.rational``); neither the checks
nor the engine read any.  ``columns`` reads a ``BlockMap`` into a ``Table``,
as the engine reads the transfer data.

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
left index too), the ``d`` and ``delta`` columns, and the bracket table;
and, made on first use, the product keys by target.  Any other tuple
satisfies the identity under test as 0 = 0.

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
    of basis pairs, in basis-index order."""
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
        # the bracket is how far delta is from a derivation, filled in
        # basis-index order
        self.tables = Tables(d, delta, product, Table(
            {}, product.den * delta.den, delta.shift))
        self.tables.brackets.cols.update(
            ((y, z), D) for y, z, D in _defects(self, delta.cols, 1))
        # d and delta as the checks compose them, made once per algebra
        self.blocks: Tuple[BlockMap, BlockMap] = (_blocks(space, d),
                                                  _blocks(space, delta))

    # the Fraction views of the tables, keyed by names, made when first read
    d, delta, product, brackets = (cached_property(
        lambda a, k=k: rational().algebra_view(a, k)) for k in Tables._fields)

    @cached_property
    def _keys_by_target(self) -> Dict[int, List[Tuple[int, int]]]:
        """The product keys by each target of their columns, made when
        ``_defects`` first scans a map with a column."""
        out: Dict[int, List[Tuple[int, int]]] = {}
        for key, col in self.tables.product.cols.items():
            for t in col:
                out.setdefault(t, []).append(key)
        return out


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


def columns(m: BlockMap) -> Table:
    """The map ``m`` as a ``Table`` over the lcm of its blocks'
    denominators: its nonzero columns by source index, block by block, the
    targets of each in index order."""
    den = lcm(*(q for _rows, q in m.blocks.values()))
    source, target, cols = m.source, m.target, {}
    for deg, (rows, q) in m.blocks.items():
        scale = den // q
        targets = [target.index[n] for n in target.names_at(deg + m.shift)]
        for s, col in zip(source.names_at(deg), zip(*rows)):
            if any(col):
                cols[source.index[s]] = {t: x * scale
                                         for t, x in zip(targets, col) if x}
    return Table(cols, den, m.shift)


def _add_into(acc: Dict, vec: Dict, c=1) -> None:
    if c != 1:
        vec = {n: c * v for n, v in vec.items()}
    for n, v in vec.items():
        acc[n] = acc[n] + v if n in acc else v


def _left(table: Dict, x, vec: Dict) -> Dict:
    """``table`` on the basis element ``x`` and a vector; ``_right`` on a
    vector and the basis element ``z``.  Keys and values are those of
    ``table``: indices and ints, here and in the engine."""
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


def _defects(a: BVAlgebra, cols: Dict, p: int, commutative: bool = False):
    """``(y, z, D)`` in basis-index order for each pair of basis elements
    with ``D = A(yz) - A(y) z - (-1)^(p|y|) y A(z)`` nonzero, where ``A`` is
    the map of parity ``p`` with columns ``cols``: the bracket ``[y, z]``
    for ``delta``, the failure of the derivation rule for ``d`` or for
    ``ad_x = [x, -]``.

    Only pairs where a term can be nonzero are visited: the product keys
    whose column ``A`` hits, and both orders of ``(w, v)`` for ``w`` a
    column of ``A``, ``s`` in ``A(w)`` and ``v`` in ``partners[s]``.  With
    ``commutative``, only those with ``y <= z``.
    """
    if not cols:
        return
    product, partners, par = a.tables.product.cols, a.partners, a.parity
    by_target = a._keys_by_target
    pairs = {key for t in cols for key in by_target.get(t, ())}
    for w, col in cols.items():
        for s in col:
            for v in partners.get(s, ()):
                pairs.add((w, v))
                pairs.add((v, w))
    if commutative:
        pairs = [(y, z) for y, z in pairs if y <= z]
    for y, z in sorted(pairs):
        acc = _apply(cols, product.get((y, z), {}))
        if y in cols:
            _add_into(acc, _right(product, cols[y], z), -1)
        if z in cols:
            _add_into(acc, _left(product, y, cols[z]),
                      1 if p * par[y] % 2 else -1)
        acc = _nonzero(acc)
        if acc:
            yield y, z, acc


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
    - derivation: the first pair ``(x, y)`` by index with ``D_d(x, y)
      != 0``;
    - order two: ``[x, yz] = [x, y] z + (-1)^((|x|+1)|y|) y [x, z]``, the
      derivation rule for ``ad_x``: for ``x`` in index order, the first
      pair ``(y, z)`` with ``D_ad_x(y, z) != 0``, so by the indices of
      ``(x, y, z)``.  With no nonzero bracket there is no ``ad_x`` to scan.

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
    bad = next(_defects(a, tables.d.cols, 1, commutative), None)
    report.add("d is a derivation of the product", bad is None,
               bad and (names[bad[0]], names[bad[1]]))

    # order two: each ad_x = [x, -] is a derivation of parity |x| + 1
    ad: Dict[int, Dict] = {}
    for (x, w), col in tables.brackets.cols.items():
        ad.setdefault(x, {})[w] = col
    witness = next(((names[x], names[y], names[z]) for x in sorted(ad)
                    for y, z, _D in _defects(a, ad[x], par[x] + 1,
                                             commutative)), None)
    report.add("delta has order <= 2 (bracket Leibniz)", witness is None,
               witness)
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

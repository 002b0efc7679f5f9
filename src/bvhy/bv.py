"""Finite-dimensional dg BV-algebras and exact axiom checking.

A ``BVAlgebra`` bundles a bigraded space, a differential of shift (0,1),
an odd operator ``delta`` of shift (-1,0), a graded-commutative product
given by structure constants, and a unit at bidegree (0,0).

The bracket is not an input: it is derived from ``delta`` and the product as

    [x, y] = delta(x y) - delta(x) y - (-1)^|x| x delta(y)

so that the order-2 compatibility checked in ``check_bv_axioms`` is
automatically the right one.  ``bracket`` expands it bilinearly over
``brackets``, its nonzero values on basis pairs.

The algebra keeps plain ``{name: Fraction}`` columns.  Graded
commutativity and the three trilinear axiom checks run on integer copies
made once per ``check_bv_axioms`` call by ``_over_lcm``: every product
constant as its numerator over the lcm of all product denominators, and
``d`` and ``brackets`` each over their own lcm.  Each identity is
homogeneous in these tables (commutativity of degree 1 in the product,
associativity of degree 2 on both sides, the derivation and Leibniz rules
of degree 1 in the product and 1 in ``d`` or the bracket in every term),
so comparing integer sides decides exactly what comparing rational sides
would.  Their signs are the ints 1 and -1: ``koszul_sign`` returns a
``Fraction``, which would turn the sums back into fractions.

The trilinear checks visit only the tuples reached by one support index,
built with the algebra: ``partners[u]``, the ``v`` with ``(u, v)`` a
product key, in key order (keys are closed under swapping, so it is the
left index too), the ``d`` and ``delta`` columns, and ``brackets``.  Any
other tuple satisfies the identity under test as 0 = 0.

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
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .graded import (Bidegree, BigradedSpace, Element, GradedMap, add,
                     compose)
from .reporting import CheckReport

Vector = Dict[str, Fraction]
ProductTable = Dict[Tuple[str, str], Vector]


class BVAlgebra:
    def __init__(self, space: BigradedSpace, d: GradedMap, delta: GradedMap,
                 product: ProductTable, unit: str):
        if unit not in space.bidegree:
            raise ValueError(f"unit {unit!r} not in basis")
        if space.bidegree[unit] != Bidegree(0, 0):
            raise ValueError("unit must sit at bidegree (0,0)")
        self.space = space
        self.d = d
        self.delta = delta
        self.unit = unit
        self.product = _symmetrize(space, product)
        self.partners: Dict[str, List[str]] = {}
        for (u, v) in self.product:
            self.partners.setdefault(u, []).append(v)
        self.brackets = _bracket_table(self)

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear product via the structure constants."""
        return self._expand(self.product, x, y, Bidegree(0, 0))

    def bracket(self, x: Element, y: Element) -> Element:
        """Derived bracket, expanded bilinearly over ``brackets``."""
        return self._expand(self.brackets, x, y, self.delta.shift)

    def _expand(self, table: ProductTable, x: Element, y: Element,
                shift: Bidegree) -> Element:
        acc: Vector = {}
        for n, c in x.coeffs.items():
            _add_into(acc, _left(table, n, y.coeffs), c)
        deg = None
        if x.bidegree is not None and y.bidegree is not None:
            deg = x.bidegree + y.bidegree + shift
        return Element(self.space, deg, acc)


def _symmetrize(space: BigradedSpace, product: ProductTable) -> ProductTable:
    """Drop zero constants, reject any that breaks bidegree additivity, and
    fill in missing mirror entries by graded commutativity.

    If both orders are present they are kept as given; any inconsistency is
    surfaced by the commutativity item of ``check_bv_axioms``.
    """
    deg = space.bidegree
    table: ProductTable = {}
    for (a, b), col in product.items():
        (pa, qa), (pb, qb) = deg[a], deg[b]
        cleaned = {t: v for t, v in col.items() if v != 0}
        for t in cleaned:
            if deg[t] != (pa + pb, qa + qb):
                raise ValueError(f"product {a!r} {b!r} -> {t!r} breaks "
                                 f"bidegree additivity")
        if cleaned:
            table[(a, b)] = cleaned
    for (a, b) in list(table):
        if (b, a) in table or a == b:
            continue
        odd = deg[a].total * deg[b].total % 2
        table[(b, a)] = {t: -v if odd else v for t, v in table[(a, b)].items()}
    return table


def _add_into(acc: Vector, vec: Vector, c=1) -> None:
    if c != 1:
        vec = {n: c * v for n, v in vec.items()}
    for n, v in vec.items():
        acc[n] = acc[n] + v if n in acc else v


def _left(table: ProductTable, x: str, vec: Vector) -> Vector:
    """``table`` on the basis element ``x`` and a vector; ``_right`` on a
    vector and the basis element ``z``."""
    acc: Vector = {}
    for w, c in vec.items():
        col = table.get((x, w))
        if col:
            _add_into(acc, col, c)
    return acc


def _right(table: ProductTable, vec: Vector, z: str) -> Vector:
    acc: Vector = {}
    for w, c in vec.items():
        col = table.get((w, z))
        if col:
            _add_into(acc, col, c)
    return acc


def _apply(cols: Dict[str, Vector], vec: Vector) -> Vector:
    """Apply a linear map given by its columns ``cols[src][tgt]``."""
    acc: Vector = {}
    for n, c in vec.items():
        col = cols.get(n)
        if col:
            _add_into(acc, col, c)
    return acc


def _over_lcm(table: Dict) -> Dict:
    """``table``'s columns as integers: each constant times the lcm of all
    the table's denominators, keys and column order unchanged."""
    den = lcm(*[v.denominator for col in table.values() for v in col.values()])
    return {key: {t: v.numerator * (den // v.denominator)
                  for t, v in col.items()} for key, col in table.items()}


def _nonzero(vec: Vector) -> Vector:
    return {n: v for n, v in vec.items() if v != 0}


def _reached(a: BVAlgebra, cols: Dict[str, Vector]) -> List[Tuple[str, str]]:
    """``(x, v)`` for ``x`` in basis order, ``s`` in the support of
    ``cols[x]`` and ``v`` in ``partners[s]``."""
    return [(x, v) for x in a.space.names for s in cols.get(x, ())
            for v in a.partners.get(s, ())]


def _defect(a: BVAlgebra, product: Dict, cols: Dict, x: str, y: str) -> Vector:
    """``A(xy) - A(x) y - (-1)^|x| x A(y)`` on basis elements, for the map
    ``A`` with columns ``cols`` and the product table ``product``: the
    bracket ``[x, y]`` when ``A`` is ``delta``, and the failure of the
    derivation rule when ``A`` is ``d``."""
    acc = _apply(cols, product.get((x, y), {}))
    _add_into(acc, _right(product, cols.get(x, {}), y), -1)
    _add_into(acc, _left(product, x, cols.get(y, {})),
              1 if a.space.bidegree[x].total % 2 else -1)
    return acc


def _bracket_table(a: BVAlgebra) -> ProductTable:
    """Nonzero brackets of basis pairs.

    Only pairs where a term of the three-term formula can be nonzero are
    computed: product keys whose column ``delta`` hits, and both orders
    of the pairs ``_reached`` from ``delta``.  With ``delta = 0`` there
    are none, and no product key is read.
    """
    product, cols = a.product, a.delta.entries
    if not cols:
        return {}
    pairs = dict.fromkeys(key for key, col in product.items()
                          if any(cols.get(t) for t in col))
    for (x, w) in _reached(a, cols):
        pairs[(x, w)] = pairs[(w, x)] = None
    table: ProductTable = {}
    for (x, w) in pairs:
        acc = _nonzero(_defect(a, product, cols, x, w))
        if acc:
            table[(x, w)] = acc
    return table


def check_bv_axioms(a: BVAlgebra) -> CheckReport:
    """Exact verification of all dg BV-algebra axioms.

    The zero-map items are block residuals, witnessed by their first
    nonzero entries by (source index, target index); an entry off its
    map's shift fails the shift item and is left out of them.  Graded
    commutativity names the first key by ``(index[x], index[y])`` whose
    column is not its mirror's times the Koszul sign; an odd square
    ``(n, n)`` is its own mirror and fails in that scan, in its place.

    Each trilinear item scans the tuples the support index reaches (see
    the module docstring) once, in basis-index order, and reports the first
    failing tuple as its witness:

    - associativity: ``(x, y, z)`` by ``(index[y], index[x], index[z])``;
      that is, the middle name ``y`` in basis order, and for each the
      failing ``(x, z)`` with the least ``(index[x], index[z])``;
    - derivation: the product keys and both orders of each pair
      ``_reached`` from ``d``, by ``(index[x], index[y])``;
    - order two: the triples where ``[x, yz]``, ``[x, y] z`` or ``y [x,
      z]`` can be nonzero, by ``(index[x], index[y], index[z])``.

    Once graded commutativity has passed, each scan keeps one tuple per
    symmetry orbit: associativity only ``index[z] >= max(index[x],
    index[y])``, and, once the unit law has passed too, no tuple that
    contains the unit; derivation only ``index[x] <= index[y]``; order two
    only ``index[y] <= index[z]``.  When commutativity fails, the scans
    keep every tuple.
    """
    report = CheckReport("bv-axioms")
    space = a.space

    for name, m, shift in (("d has shift (0,1)", a.d, Bidegree(0, 1)),
                           ("delta has shift (-1,0)", a.delta, Bidegree(-1, 0))):
        bad = m.validate_shift()
        report.add(name, m.shift == shift and not bad, bad or None)

    d, delta = a.d.to_blocks(), a.delta.to_blocks()
    report.add_residual("d^2 = 0", compose(d, d))
    report.add_residual("delta^2 = 0", compose(delta, delta))
    report.add_residual("d delta + delta d = 0",
                        add(compose(d, delta), compose(delta, d)))

    witness = next(((a.unit, n) for n in space.names
                    if a.product.get((a.unit, n)) != {n: 1}), None)
    unit_law = witness is None
    report.add("unit law", unit_law, witness)

    report.add("delta(unit) = 0", not a.delta.entries.get(a.unit), a.unit)

    product = _over_lcm(a.product)
    index, total = space.index, {n: space.bidegree[n].total for n in space.names}
    keys = sorted(product, key=lambda k: (index[k[0]], index[k[1]]))
    # keys are closed under swapping (``_symmetrize``)
    witness = next(((x, y) for x, y in keys if product[x, y] != (
        {t: -v for t, v in product[y, x].items()}
        if total[x] * total[y] % 2 else product[y, x])), None)
    commutative = witness is None
    report.add("graded commutativity", commutative, witness)

    report.add("associativity", *_check_associativity(
        a, product, keys, unit_law, commutative))
    report.add("d is a derivation of the product", *_check_derivation(
        a, product, _over_lcm(a.d.entries), commutative))
    report.add("delta has order <= 2 (bracket Leibniz)", *_check_order_two(
        a, product, _over_lcm(a.brackets), commutative))
    return report


def _check_associativity(a: BVAlgebra, product: Dict, keys: List,
                         unit_law: bool, commutative: bool):
    """``(passed, witness)`` of associativity, ``product`` being
    ``_over_lcm(a.product)`` and ``keys`` its keys in index order.

    The associators ``A(x, y, z) = (xy)z - x(yz)`` of one middle name ``y``
    at a time are summed into one accumulator keyed ``(x, z, target)``:
    ``(xy)z`` from the keys ``(x, y)``, ``x(yz)`` from the keys ``(y, z)``.
    ``right[u]`` and ``left[v]`` are filled from the keys in index order,
    so they are sorted by index and each cut is a bisect; they exist for
    the unit too, which may be a factor ``w`` of ``xy`` or ``yz``."""
    index, names = a.space.index, a.space.names
    unit = a.unit if unit_law and commutative else None
    right: Dict[str, List] = {}
    left: Dict[str, List] = {}
    for u, v in keys:
        if v != unit:
            right.setdefault(u, []).append((index[v], v, product[u, v]))
        if u != unit:
            left.setdefault(v, []).append((index[u], u, product[u, v]))
    for y in names:
        # left[y] holds the same names as right[y], keys being symmetric
        yrow = right.get(y) if y != unit else None
        if not yrow:
            continue
        iy = index[y]
        acc: Dict[Tuple[str, str, str], int] = {}
        get = acc.get
        for ix, x, xy in left[y]:
            lo = max(ix, iy) if commutative else 0
            for w, c in xy.items():
                wrow = right.get(w, ())
                for _iz, z, wz in wrow[bisect_left(wrow, (lo,)):]:
                    for t, v in wz.items():
                        acc[x, z, t] = get((x, z, t), 0) + c * v
        for iz, z, yz in yrow[bisect_left(yrow, (iy if commutative else 0,)):]:
            hi = iz if commutative else len(names)
            for w, c in yz.items():
                wrow = left.get(w, ())
                for _ix, x, xw in wrow[:bisect_left(wrow, (hi + 1,))]:
                    for t, v in xw.items():
                        acc[x, z, t] = get((x, z, t), 0) - c * v
        bad = [(index[x], index[z]) for (x, z, _t), v in acc.items() if v]
        if bad:
            ix, iz = min(bad)
            return False, (names[ix], y, names[iz])
    return True, None


def _check_derivation(a: BVAlgebra, product: Dict, cols: Dict,
                      commutative: bool):
    """``(passed, witness)`` of the derivation rule, ``product`` and
    ``cols`` being ``_over_lcm`` of ``a.product`` and ``a.d.entries``."""
    index = a.space.index
    pairs = set(product)
    for (x, v) in _reached(a, cols):
        pairs.update(((x, v), (v, x)))
    if commutative:
        pairs = {(x, y) for (x, y) in pairs if index[x] <= index[y]}
    for (x, y) in sorted(pairs, key=lambda p: (index[p[0]], index[p[1]])):
        if any(_defect(a, product, cols, x, y).values()):
            return False, (x, y)
    return True, None


def _check_order_two(a: BVAlgebra, product: Dict, brackets: Dict,
                     commutative: bool):
    """Leibniz rule for the derived bracket:

        [x, yz] = [x,y] z + (-1)^((|x|+1)|y|) y [x,z]

    equivalent to the seven-term order-2 identity given commutativity.
    ``product`` and ``brackets`` are ``_over_lcm`` of ``a.product`` and
    ``a.brackets``.  The live triples come from joining ``brackets`` with
    the product, so with no nonzero bracket there are none.
    """
    if not brackets:
        return True, None
    index, partners = a.space.index, a.partners
    bracketed: Dict[str, List[str]] = {}
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
        live = {t for t in live if index[t[1]] <= index[t[2]]}

    parity = {n: a.space.bidegree[n].total % 2 for n in a.space.names}
    for (x, y, z) in sorted(live, key=lambda t: (index[t[0]], index[t[1]],
                                                 index[t[2]])):
        acc = _left(brackets, x, product.get((y, z), {}))
        _add_into(acc, _right(product, brackets.get((x, y), {}), z), -1)
        _add_into(acc, _left(product, y, brackets.get((x, z), {})),
                  1 if (parity[x] + 1) * parity[y] % 2 else -1)
        if any(acc.values()):
            return False, (x, y, z)
    return True, None

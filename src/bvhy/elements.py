"""Homogeneous elements, the maps and operations applied to them, and the
``Fraction`` inputs of an algebra.

``validate`` and ``transfer`` never load this module: they work on integer
tables and blocks only.  ``Element`` arithmetic serves
``engine.naive_evaluate_tree``, with which ``search`` re-checks its
witness, and the tests' oracles.  ``fraction_tables`` converts the
``GradedMap``s and product table that ``BVAlgebra`` is given by the model
builders and the tests, and ``to_block`` a Gram block given as a matrix
of ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from . import bv, linalg
from .bv import BVAlgebra, _add_into, _left
from .graded import Bidegree, BigradedSpace
from .rational import GradedMap, ProductTable, Vector


def koszul_sign(deg_passed: int, deg_over: int) -> Fraction:
    """Sign picked up when something of degree ``deg_passed`` moves past
    something of degree ``deg_over``: (-1)^(deg_passed * deg_over)."""
    return Fraction(-1) if (deg_passed * deg_over) % 2 else Fraction(1)


def fraction_tables(space: BigradedSpace, d: GradedMap, delta: GradedMap,
                    product: ProductTable) -> Tuple:
    """The maps ``d`` and ``delta`` and the product, keyed by names, as
    ``bv.Table``s, for ``BVAlgebra``.  A nonzero product constant that
    breaks bidegree additivity is a ``ValueError``."""
    index, deg = space.index, space.bidegree
    for (a, b), col in product.items():
        (pa, qa), (pb, qb) = deg[a], deg[b]
        for t, v in col.items():
            if v and deg[t] != (pa + pb, qa + qb):
                raise ValueError(f"product {a!r} {b!r} -> {t!r} breaks "
                                 f"bidegree additivity")

    def pairs(col):
        return {index[t]: (v.numerator, v.denominator) for t, v in col.items()}
    maps = (bv.to_table({index[s]: pairs(col) for s, col in m.entries.items()},
                        m.shift) for m in (d, delta))
    return (*maps, bv.to_table({(index[a], index[b]): pairs(col)
                                for (a, b), col in product.items()}))


def to_block(a: List[List[Fraction]]) -> linalg.Block:
    """The matrix ``a`` of ``Fraction``s as integer numerators over the lcm
    of its denominators."""
    den = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in a], den


class Element:
    """Homogeneous element: a linear combination of basis elements sharing
    one bidegree.  The zero element may carry a bidegree or ``None``."""

    def __init__(self, space: BigradedSpace, bidegree: Optional[Bidegree],
                 coeffs: Optional[Dict[str, Fraction]] = None):
        self.space, self.bidegree = space, bidegree
        self.coeffs = {n: c for n, c in (coeffs or {}).items() if c != 0}
        for n in self.coeffs:
            if n not in space.bidegree:
                raise ValueError(f"{n!r} not in space")
            if bidegree is not None and space.bidegree[n] != bidegree:
                raise ValueError(f"{n!r} is not homogeneous of bidegree {bidegree}")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def total_degree(self) -> int:
        if self.bidegree is None:
            return 0
        return self.bidegree.total

    def scale(self, c: Fraction) -> "Element":
        return Element(self.space, self.bidegree, {n: c * v for n, v in self.coeffs.items()})

    def __add__(self, other: "Element") -> "Element":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.bidegree != other.bidegree:
            raise ValueError("sum of elements of different bidegrees is not homogeneous")
        out = dict(self.coeffs)
        for n, v in other.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + v
        return Element(self.space, self.bidegree, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.is_zero or self.bidegree == other.bidegree
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{n}" for n, c in sorted(self.coeffs.items()))


def apply(m: GradedMap, x: Element) -> Element:
    """The map ``m`` on the element ``x`` of its source."""
    if x.space is not m.source and x.space.names != m.source.names:
        raise ValueError("element not in the source space")
    out: Dict[str, Fraction] = {}
    for n, c in x.coeffs.items():
        for tgt, v in m.entries.get(n, {}).items():
            out[tgt] = out.get(tgt, Fraction(0)) + c * v
    deg = None if x.bidegree is None else x.bidegree + m.shift
    return Element(m.target, deg, out)


def nonzero_entries(m: GradedMap) -> List[Tuple[str, str, Fraction]]:
    """``(source, target, value)`` of every entry of ``m``, sorted."""
    return [(s, t, v) for s, col in sorted(m.entries.items())
            for t, v in sorted(col.items())]


def multiply(a: BVAlgebra, x: Element, y: Element) -> Element:
    """Bilinear product via the structure constants."""
    return _expand(a, a.product, x, y, Bidegree(0, 0))


def bracket(a: BVAlgebra, x: Element, y: Element) -> Element:
    """Derived bracket, expanded bilinearly over ``a.brackets``."""
    return _expand(a, a.brackets, x, y, a.delta.shift)


def _expand(a: BVAlgebra, table: ProductTable, x: Element, y: Element,
            shift: Bidegree) -> Element:
    acc: Vector = {}
    for n, c in x.coeffs.items():
        _add_into(acc, _left(table, n, y.coeffs), c)
    deg = None
    if x.bidegree is not None and y.bidegree is not None:
        deg = x.bidegree + y.bidegree + shift
    return Element(a.space, deg, acc)

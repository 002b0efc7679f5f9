"""Test-only helpers for the ``Fraction`` form in which the tests state
algebras and maps.

``fraction_tables`` converts ``GradedMap``s and a product table into the
``bv.Table``s ``BVAlgebra`` takes, and ``to_block`` a matrix of
``Fraction``s into a ``linalg.Block``.  ``set_entry`` writes one entry of
a ``GradedMap`` and ``nonzero_entries`` lists them all.
"""

from fractions import Fraction
from math import lcm
from typing import List, Tuple

from bvhy import bv, linalg
from bvhy.graded import BigradedSpace
from bvhy.rational import GradedMap, ProductTable


def fraction_tables(space: BigradedSpace, d: GradedMap, delta: GradedMap,
                    product: ProductTable) -> Tuple:
    """The maps ``d`` and ``delta`` and the product, keyed by names, as
    ``bv.Table``s, for ``BVAlgebra``.  A nonzero product constant that
    breaks bidegree additivity is a ``ValueError``
    (``bv.check_additivity``)."""
    index = space.index

    def pairs(col):
        return {index[t]: (v.numerator, v.denominator) for t, v in col.items()}
    maps = (bv.to_table({index[s]: pairs(col) for s, col in m.entries.items()},
                        m.shift) for m in (d, delta))
    return (*maps, bv.check_additivity(space, bv.to_table({
        (index[a], index[b]): pairs(col) for (a, b), col in product.items()})))


def to_block(a: List[List[Fraction]]) -> linalg.Block:
    """The matrix ``a`` of ``Fraction``s as integer numerators over the lcm
    of its denominators."""
    den = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in a], den


def set_entry(m: GradedMap, src: str, tgt: str, c: Fraction) -> None:
    """Set the entry of ``m`` from ``src`` to ``tgt`` to ``c``; 0 removes
    it."""
    if c == 0:
        m.entries.get(src, {}).pop(tgt, None)
    else:
        m.entries.setdefault(src, {})[tgt] = c


def nonzero_entries(m: GradedMap) -> List[Tuple[str, str, Fraction]]:
    """``(source, target, value)`` of every entry of ``m``, sorted."""
    return [(s, t, v) for s, col in sorted(m.entries.items())
            for t, v in sorted(col.items())]

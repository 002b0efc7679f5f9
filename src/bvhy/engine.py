"""Evaluation of decorated trees and assembly of transferred operations.

A tree with k leaves is evaluated by decorating the leaves with ``iota``,
internal edges with ``h``, vertices with the algebra's product, bracket or
delta, and the root with ``pi``.  Koszul signs arise when the odd operator
``h`` passes over the already-assembled value of a left sibling.

The engine runs on integers.  It reads the algebra's product and bracket
(``a.tables``) and ``iota``, ``pi`` and ``h`` (``td.tables``) as
``bv.Table``s: columns keyed by basis index, integers over one
denominator per map.  Values are ``{index: int}`` dicts combined with the
helpers of ``bv``, in tables keyed by tuples of harmonic basis indices in
increasing leaf-label order.  Every tree with m leaves and l brackets has
the same numbers of each kind of vertex and edge, so all the values of
one tree sum share one denominator, known in advance: numerators are
multiplied as plain ints, with no gcd per operation, and reduced only
when written (``serialize.table_to_json``) or viewed as ``Fraction``s
(``OperationTable.ops``), so ``transfer`` loads no ``fractions``.
Applying a map drops zero values, so on strongly trivialized models the
tables collapse early; ``h`` is applied once per table.
``splits`` is the one split rule: the root of a tree on a sorted label
set splits it into a left part holding the smallest label and a nonempty
right part.  It lives here, where it runs in production, so ``transfer``
never loads ``bvhy.trees``; ``trees.enumerate_trees`` imports it.
``build_operation_table`` sums all trees with equal leaf and bracket
counts at once, bottom-up over these splits.  A graft's values depend
only on the sizes and bracket counts of its subtrees and the vertex kind;
leaf labels only permute keys.  So each size class gets one product list
(``_products``), scattered into every split of that class (``_scatter``).
``naive_evaluate_tree`` evaluates one tree on given arguments by direct
recursion on ``elements.Element``s, with no tables and no caching.  The
witness search re-verifies each witness with it, and the tests use it as
the oracle for the tables.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from .bv import BVAlgebra, _add_into, _apply, _left, _nonzero
from .graded import Bidegree, rational
from .hodge import TransferData
from .reporting import CheckReport

if TYPE_CHECKING:
    from .elements import Element
    from .trees import DecoratedTree

Labels = Tuple[int, ...]
Constants = Dict[Tuple[int, ...], Dict[int, int]]
Items = List[Tuple[Tuple[int, ...], Dict[int, int]]]


def splits(labels: Labels) -> Iterator[Tuple[Labels, Labels]]:
    """The root splits ``(A, B)`` of a sorted label tuple: ``A`` holds the
    smallest label, ``B`` is nonempty; by size of ``A``, then
    lexicographically."""
    first, rest = labels[0], labels[1:]
    for r in range(len(rest)):
        for others in itertools.combinations(rest, r):
            yield (first, *others), tuple(x for x in rest if x not in others)


def _through(cols: Dict, items) -> Items:
    """Nonzero images of ``(key, value)`` items under the map ``cols``."""
    return [(k, w) for k, v in items if (w := _nonzero(_apply(cols, v)))]


def _products(a: BVAlgebra, table: Dict, left: Items, right: Items,
              right_vertex: bool) -> Items:
    """The vertex with columns ``table`` (the product's or the bracket's)
    on every pair of child values (each after ``h`` if the child is a
    vertex), as nonzero ``(left key + right key, value)`` pairs,
    left-major.  A right vertex child's ``h`` is odd, so it picks up a
    Koszul sign passing over the left value."""
    if not table:
        return []
    out: Items = []
    for kl, vl in left:
        if right_vertex and a.parity[next(iter(vl))]:
            vl = {n: -c for n, c in vl.items()}
        for kr, vr in right:
            acc: Dict[int, int] = {}
            for n, c in vl.items():
                _add_into(acc, _left(table, n, vr), c)
            if w := _nonzero(acc):
                out.append((kl + kr, w))
    return out


def _scatter(products: Items, labels: Sequence[int], out: Constants) -> None:
    """Add ``products`` to ``out``, their merged keys reordered from the
    children's leaf ``labels`` into increasing label order."""
    pick = itemgetter(*sorted(range(len(labels)), key=labels.__getitem__))
    for merged, w in products:
        key = pick(merged)
        if key in out:
            _add_into(out[key], w)
        else:
            out[key] = dict(w)


def naive_evaluate_tree(t: DecoratedTree, a: BVAlgebra, td: TransferData,
                        args: List[Element]) -> Element:
    """Reference evaluator: plain recursion, no tables, no normal forms."""
    from .elements import apply, bracket, koszul_sign, multiply
    if len(args) != t.arity:
        raise ValueError(f"tree has arity {t.arity}, got {len(args)} arguments")

    def edge(child: DecoratedTree, v: Element) -> Element:
        return apply(td.h, v) if not child.is_leaf else v

    def rec(node: DecoratedTree) -> Element:
        if node.is_leaf:
            return apply(td.iota, args[node.label - 1])
        if node.kind == "del":
            return apply(a.delta, edge(node.children[0], rec(node.children[0])))
        left, right = node.children
        vl = edge(left, rec(left))
        vr = edge(right, rec(right))
        if not right.is_leaf:
            vr = vr.scale(koszul_sign(1, vl.total_degree))
        return (multiply if node.kind == "mul" else bracket)(a, vl, vr)

    return apply(td.pi, rec(t))


class OperationTable:
    """Transferred operations on cohomology, indexed by (arity, brackets):
    ``tables[(k, l)]`` is ``(constants, den)``, with ``constants[key][t] /
    den`` the coefficient of harmonic class ``t`` in the operation on the
    classes ``key``, all indices; only nonzero constants are kept.  ``ops``
    is the same keyed by names, with ``Fraction`` values, made when first
    read."""

    def __init__(self, algebra: BVAlgebra, td: TransferData,
                 tables: Dict[Tuple[int, int], Tuple[Constants, int]]):
        self.algebra, self.td, self.tables = algebra, td, tables

    ops = cached_property(lambda table: rational().operations_view(table))

    def unit_class(self) -> Optional[str]:
        """Harmonic basis name whose inclusion is the algebra unit, or None
        if the unit is not harmonic (for instance, exact)."""
        iota = self.td.tables[0]
        target = {self.algebra.space.index[self.algebra.unit]: iota.den}
        return next((n for j, n in enumerate(self.td.cohomology.names)
                     if iota.cols.get(j) == target), None)


def build_operation_table(a: BVAlgebra, td: TransferData,
                          max_arity: int) -> OperationTable:
    """Operations (k, l) for 2 <= k <= max_arity and 0 <= l <= k - 2.

    Each operation is the sum of all trivalent trees with k leaves and l
    brackets.  ``edges[(m, l)]`` holds that sum before ``pi`` for trees on
    leaves 1..m, as the edge above its root sees it.  The root of such a
    tree splits the leaves into A, which holds leaf 1, and B, in the
    order of ``splits``; the subtree
    sums on A and B are ``edges[(|A|, la)]`` and ``edges[(|B|, lb)]`` up to
    an order-preserving relabelling, so their products are computed once
    per size class ``(|A|, la, |B|, lb, kind)`` and level.

    Every such tree has m ``iota`` leaves, m - 1 - l products, l brackets
    and m - 1 ``h`` edges, so ``edges[(m, l)]`` is over ``I^m P^(m-1-l) B^l
    H^(m-1)`` for the denominators I, P, B, H of ``iota``, the product, the
    bracket and ``h``, and the table ``(k, l)`` over ``I^k P^(k-1-l) B^l
    H^(k-2)`` times the denominator of ``pi``.
    """
    iota, pi, h = td.tables
    kinds = (a.tables.product, a.tables.brackets)
    edges: Dict[Tuple[int, int], Items] = {
        (1, 0): [((j,), col) for j, col in sorted(iota.cols.items())]}
    tables = {}
    for m in range(2, max_arity + 1):
        level: Dict[int, Constants] = {l: {} for l in range(m)}
        products: Dict[Tuple[int, int, int, int, int], Items] = {}
        for A, B in splits(tuple(range(1, m + 1))):
            for la, lb, br in itertools.product(
                    range(len(A)), range(len(B)), (0, 1)):
                size_class = (len(A), la, len(B), lb, br)
                if size_class not in products:
                    products[size_class] = _products(
                        a, kinds[br].cols, edges[(len(A), la)],
                        edges[(len(B), lb)], len(B) > 1)
                _scatter(products[size_class], A + B, level[la + lb + br])
        for l, values in level.items():
            if m < max_arity:
                edges[(m, l)] = _through(h.cols, values.items())
            if l <= m - 2:
                tables[(m, l)] = dict(_through(pi.cols, values.items())), \
                    iota.den ** m * kinds[0].den ** (m - 1 - l) * \
                    kinds[1].den ** l * h.den ** (m - 2) * pi.den
    return OperationTable(a, td, tables)


def _names(H, key) -> Tuple[str, ...]:
    return tuple(H.names[i] for i in key)


def check_formal_unit(table: OperationTable) -> CheckReport:
    """Unit class acts as identity for the product and kills every other
    stored operation when placed in any argument slot.  A unit that is
    not a harmonic basis element fails the report, named as its witness."""
    report = CheckReport("formal-unit")
    u = table.unit_class()
    if u is None:
        report.add("unit is a harmonic basis element", False,
                   table.algebra.unit)
        return report
    H = table.td.cohomology
    j = H.index[u]

    product, den = table.tables.get((2, 0), ({}, 1))
    witness = next((_names(H, key) for x in range(len(H.names))
                    for key in ((j, x), (x, j))
                    if product.get(key, {}) != {x: den}), None)
    report.add("product with unit class is the identity", witness is None, witness)

    witness = next(((k, l, _names(H, key)) for k, l in sorted(table.tables)
                    if (k, l) != (2, 0)
                    for key, col in table.tables[k, l][0].items()
                    if j in key and col), None)
    report.add("non-product operations vanish on the unit class",
               witness is None, witness)
    return report


def top_degree_report(table: OperationTable, n: int) -> CheckReport:
    """Nonzero outputs in bidegree (n,n) may come only from the product."""
    report = CheckReport("top-degree")
    H = table.td.cohomology
    top = {H.index[name] for name in H.names_at(Bidegree(n, n))}
    offenders = [(k, l, _names(H, key)) for k, l in sorted(table.tables)
                 if (k, l) != (2, 0)
                 for key, col in table.tables[k, l][0].items()
                 if any(t in top and v for t, v in col.items())]
    report.add("only the product outputs in the top bidegree",
               not offenders, offenders[:5] or None)
    return report

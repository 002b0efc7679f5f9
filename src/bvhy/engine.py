"""Evaluation of decorated trees and assembly of transferred operations.

A tree with k leaves is evaluated by decorating the leaves with ``iota``,
internal edges with ``h``, vertices with the algebra's product, bracket or
delta, and the root with ``pi``.  Koszul signs arise when the odd operator
``h`` passes over the already-assembled value of a left sibling.

Values are plain ``{name: Fraction}`` dicts combined with the helpers of
``bv``, in tables keyed by tuples of harmonic basis names in increasing
leaf-label order.  Applying a map drops zero values, so on strongly
trivialized models the tables collapse early; ``h`` is applied once per
table.
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
recursion on ``Element``s, with no tables and no caching.  The witness
search re-verifies each witness with it, and the tests use it as the
oracle for the tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from .bv import BVAlgebra, Vector, _add_into, _apply, _left, _nonzero
from .graded import Bidegree, Element, koszul_sign
from .hodge import TransferData
from .reporting import CheckReport

if TYPE_CHECKING:
    from .trees import DecoratedTree

Labels = Tuple[int, ...]
Constants = Dict[Tuple[str, ...], Vector]
Items = List[Tuple[Tuple[str, ...], Vector]]


def splits(labels: Labels) -> Iterator[Tuple[Labels, Labels]]:
    """The root splits ``(A, B)`` of a sorted label tuple: ``A`` holds the
    smallest label, ``B`` is nonempty; by size of ``A``, then
    lexicographically."""
    first, rest = labels[0], labels[1:]
    for r in range(len(rest)):
        for others in itertools.combinations(rest, r):
            yield (first, *others), tuple(x for x in rest if x not in others)


def _leaves(td: TransferData) -> Constants:
    return {(n,): c for n in td.cohomology.names if (c := td.iota.entries.get(n))}


def _through(cols: Dict[str, Vector], items) -> Items:
    """Nonzero images of ``(key, value)`` items under the map ``cols``."""
    return [(k, w) for k, v in items if (w := _nonzero(_apply(cols, v)))]


def _products(a: BVAlgebra, kind: str, left: Items, right: Items,
              right_vertex: bool) -> Items:
    """The vertex ``kind`` on every pair of child values (each after ``h``
    if the child is a vertex), as nonzero ``(left key + right key, value)``
    pairs, left-major.  A right vertex child's ``h`` is odd, so it picks
    up a Koszul sign passing over the left value."""
    table = a.product if kind == "mul" else a.brackets
    if not table:
        return []
    out: Items = []
    for kl, vl in left:
        if right_vertex and a.space.bidegree[next(iter(vl))].total % 2:
            vl = {n: -c for n, c in vl.items()}
        for kr, vr in right:
            acc: Vector = {}
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
    if len(args) != t.arity:
        raise ValueError(f"tree has arity {t.arity}, got {len(args)} arguments")

    def edge(child: DecoratedTree, v: Element) -> Element:
        return td.h(v) if not child.is_leaf else v

    def rec(node: DecoratedTree) -> Element:
        if node.is_leaf:
            return td.iota(args[node.label - 1])
        if node.kind == "del":
            return a.delta(edge(node.children[0], rec(node.children[0])))
        left, right = node.children
        vl = edge(left, rec(left))
        vr = edge(right, rec(right))
        if not right.is_leaf:
            vr = vr.scale(koszul_sign(1, vl.total_degree))
        op = a.multiply if node.kind == "mul" else a.bracket
        return op(vl, vr)

    return td.pi(rec(t))


class OperationTable:
    """Transferred operations on cohomology, indexed by (arity, brackets)."""

    def __init__(self, algebra: BVAlgebra, td: TransferData):
        self.algebra = algebra
        self.td = td
        self.ops: Dict[Tuple[int, int], Constants] = {}

    def unit_class(self) -> Optional[str]:
        """Harmonic basis name whose inclusion is the algebra unit, or None
        if the unit is not harmonic (for instance, exact)."""
        target = {self.algebra.unit: Fraction(1)}
        for n in self.td.cohomology.names:
            if self.td.iota.entries.get(n, {}) == target:
                return n
        return None


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
    """
    edges: Dict[Tuple[int, int], Items] = {(1, 0): list(_leaves(td).items())}
    table = OperationTable(a, td)
    for m in range(2, max_arity + 1):
        level: Dict[int, Constants] = {l: {} for l in range(m)}
        products: Dict[Tuple[int, int, int, int, str], Items] = {}
        for A, B in splits(tuple(range(1, m + 1))):
            for la, lb, kind in itertools.product(
                    range(len(A)), range(len(B)), ("mul", "br")):
                size_class = (len(A), la, len(B), lb, kind)
                if size_class not in products:
                    products[size_class] = _products(
                        a, kind, edges[(len(A), la)], edges[(len(B), lb)],
                        len(B) > 1)
                _scatter(products[size_class], A + B,
                         level[la + lb + (kind == "br")])
        for l, values in level.items():
            if m < max_arity:
                edges[(m, l)] = _through(td.h.entries, values.items())
            if l <= m - 2:
                table.ops[(m, l)] = dict(_through(td.pi.entries,
                                                  values.items()))
    return table


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

    witness = None
    product = table.ops.get((2, 0), {})
    for x in H.names:
        for key in ((u, x), (x, u)):
            if product.get(key, {}) != {x: Fraction(1)}:
                witness = key
                break
        if witness:
            break
    report.add("product with unit class is the identity", witness is None, witness)

    witness = None
    for (k, l), constants in sorted(table.ops.items()):
        if (k, l) == (2, 0):
            continue
        for key, col in constants.items():
            if u in key and col:
                witness = (k, l, key)
                break
        if witness:
            break
    report.add("non-product operations vanish on the unit class",
               witness is None, witness)
    return report


def top_degree_report(table: OperationTable, n: int) -> CheckReport:
    """Nonzero outputs in bidegree (n,n) may come only from the product."""
    report = CheckReport("top-degree")
    H = table.td.cohomology
    top = Bidegree(n, n)
    offenders = []
    for (k, l), constants in sorted(table.ops.items()):
        for key, col in constants.items():
            if any(H.bidegree[name] == top and v != 0 for name, v in col.items()):
                if (k, l) != (2, 0):
                    offenders.append((k, l, key))
    report.add("only the product outputs in the top bidegree",
               not offenders, offenders[:5] or None)
    return report

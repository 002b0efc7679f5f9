"""Evaluation of decorated trees and assembly of transferred operations.

A tree with k leaves is evaluated by decorating the leaves with ``iota``,
internal edges with ``h``, vertices with the algebra's product, bracket or
delta, and the root with ``pi``.  Koszul signs arise when the odd operator
``h`` passes over the already-assembled value of a left sibling.

``build_operation_table`` sums all trees with equal leaf and bracket
counts at once, bottom-up over leaf subsets.  ``TreeEvaluator`` evaluates
single trees, caching per subtree the values on all harmonic basis tuples
under the leaf-relabelled canonical form.  Both graft child values with
``_graft``, and neither stores zero values, so on strongly trivialized
models the tables collapse early.  ``naive_evaluate_tree`` is the
independent reference path: direct recursion, no canonical forms, no
caching.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bv import BVAlgebra
from .graded import Bidegree, Element, koszul_sign
from .hodge import TransferData
from .reporting import CheckReport
from .trees import BR, MUL, DecoratedTree, leaf, tree_bidegree, unparse_tree

Constants = Dict[Tuple[str, ...], Dict[str, Fraction]]
ValueTable = Dict[Tuple[str, ...], Element]


def _normalize_leaves(t: DecoratedTree) -> DecoratedTree:
    """Relabel leaves to 1..m preserving label order, for table sharing."""
    labels = sorted(t.leaves())
    remap = {old: i + 1 for i, old in enumerate(labels)}

    def rec(node: DecoratedTree) -> DecoratedTree:
        if node.is_leaf:
            return leaf(remap[node.label])
        return DecoratedTree(node.kind, children=tuple(rec(c) for c in node.children))

    return rec(t)


def _graft(a: BVAlgebra, td: TransferData, kind: str,
           left: ValueTable, left_labels: List[int], left_vertex: bool,
           right: ValueTable, right_labels: List[int], right_vertex: bool,
           out: ValueTable) -> None:
    """Add the binary vertex ``kind`` on every pair of child values to ``out``.

    A child that is a vertex reaches its parent through the homotopy ``h``,
    which picks up a Koszul sign when it passes over the left value.  Child
    keys follow their sorted leaf labels; the parent key merges them into
    increasing label order.
    """
    combine = a.multiply if kind == MUL else a.bracket
    labels = left_labels + right_labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rights = [(kr, td.h(vr) if right_vertex else vr) for kr, vr in right.items()]
    rights = [(kr, vr) for kr, vr in rights if not vr.is_zero]
    for kl, vl in left.items():
        if left_vertex:
            vl = td.h(vl)
        if vl.is_zero:
            continue
        sign = koszul_sign(1, vl.total_degree) if right_vertex else Fraction(1)
        for kr, vr in rights:
            w = combine(vl, vr.scale(sign))
            if w.is_zero:
                continue
            merged = kl + kr
            key = tuple(merged[i] for i in order)
            out[key] = out[key] + w if key in out else w


def _project(td: TransferData, values: ValueTable) -> Constants:
    """Apply ``pi`` at the root and keep the nonzero structure constants."""
    out: Constants = {}
    for key, v in values.items():
        w = td.pi(v)
        if not w.is_zero:
            out[key] = dict(w.coeffs)
    return out


class TreeEvaluator:
    """Memoized evaluation of decorated trees over the harmonic basis."""

    def __init__(self, algebra: BVAlgebra, td: TransferData):
        self.algebra = algebra
        self.td = td
        self._tables: Dict[str, ValueTable] = {}
        self._root_tables: Dict[str, Constants] = {}

    def value_table(self, t: DecoratedTree) -> ValueTable:
        """Nonzero pre-projection values on harmonic basis tuples.

        Keys are tuples of harmonic basis names in increasing leaf-label
        order; values live in the big algebra (pi not yet applied).
        """
        norm = _normalize_leaves(t)
        key = unparse_tree(norm)
        if key not in self._tables:
            self._tables[key] = self._build(norm)
        return self._tables[key]

    def _build(self, t: DecoratedTree) -> ValueTable:
        a, td = self.algebra, self.td
        if t.is_leaf:
            return {(n,): td.iota(td.cohomology.basis_element(n))
                    for n in td.cohomology.names}
        if t.kind == "del":
            child = t.children[0]
            table = {}
            for k, v in self.value_table(child).items():
                w = a.delta(v if child.is_leaf else td.h(v))
                if not w.is_zero:
                    table[k] = w
            return table

        left, right = t.children
        table: ValueTable = {}
        _graft(a, td, t.kind,
               self.value_table(left), sorted(left.leaves()), not left.is_leaf,
               self.value_table(right), sorted(right.leaves()), not right.is_leaf,
               table)
        return table

    def operation_constants(self, t: DecoratedTree) -> Constants:
        """Structure constants of the induced operation on cohomology."""
        norm = _normalize_leaves(t)
        key = unparse_tree(norm)
        if key not in self._root_tables:
            self._root_tables[key] = _project(self.td, self.value_table(norm))
        return self._root_tables[key]

    def evaluate(self, t: DecoratedTree, args: List[Element]) -> Element:
        """Multilinear evaluation on homogeneous cohomology elements."""
        if len(args) != t.arity:
            raise ValueError(f"tree has arity {t.arity}, got {len(args)} arguments")
        for x in args:
            if x.space.names != self.td.cohomology.names:
                raise ValueError("argument outside the cohomology space")
        constants = self.operation_constants(t)
        H = self.td.cohomology
        out_deg = None
        if all(x.bidegree is not None for x in args):
            out_deg = Bidegree(*map(sum, zip(*(x.bidegree for x in args)))) \
                + tree_bidegree(t)
        acc: Dict[str, Fraction] = {}
        _accumulate(constants, args, acc)
        return Element(H, out_deg, acc)


def _accumulate(constants: Constants, args: List[Element],
                acc: Dict[str, Fraction]) -> None:
    k = len(args)

    def rec(i: int, key: List[str], coeff: Fraction) -> None:
        if i == k:
            for name, v in constants.get(tuple(key), {}).items():
                acc[name] = acc.get(name, Fraction(0)) + coeff * v
            return
        for n, c in args[i].coeffs.items():
            key.append(n)
            rec(i + 1, key, coeff * c)
            key.pop()

    rec(0, [], Fraction(1))


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

    def nonzero_keys(self) -> List[Tuple[int, int]]:
        return sorted(kl for kl, c in self.ops.items() if c)

    def unit_class(self) -> str:
        """Harmonic basis name whose inclusion is the algebra unit."""
        target = {self.algebra.unit: Fraction(1)}
        for n in self.td.cohomology.names:
            if self.td.iota.entries.get(n, {}) == target:
                return n
        raise ValueError("unit class is not a harmonic basis element")

    def validate_bidegrees(self) -> List[Tuple]:
        """Entries violating the (-l, -k+2) bidegree law, if any."""
        H = self.td.cohomology
        bad = []
        for (k, l), constants in self.ops.items():
            shift = Bidegree(-l, -k + 2)
            for key, col in constants.items():
                in_deg = Bidegree(*map(sum, zip(*(H.bidegree[n] for n in key))))
                expect = in_deg + shift
                for name in col:
                    if H.bidegree[name] != expect:
                        bad.append((k, l, key, name))
        return bad


def build_operation_table(a: BVAlgebra, td: TransferData,
                          max_arity: int) -> OperationTable:
    """Operations (k, l) for 2 <= k <= max_arity and 0 <= l <= k - 2.

    Each operation is the sum of all trivalent trees with k leaves and l
    brackets.  ``sums[(m, l)]`` holds that sum before ``pi`` for trees on
    leaves 1..m.  The root of such a tree splits the leaves into A, which
    holds leaf 1, and B; the subtree sums on A and B are ``sums[(|A|, la)]``
    and ``sums[(|B|, lb)]`` up to an order-preserving relabelling.
    """
    H = td.cohomology
    sums: Dict[Tuple[int, int], ValueTable] = {
        (1, 0): {(n,): td.iota(H.basis_element(n)) for n in H.names}}
    table = OperationTable(a, td)
    for m in range(2, max_arity + 1):
        level: Dict[int, ValueTable] = {l: {} for l in range(m)}
        rest = range(2, m + 1)
        for r in range(m - 1):
            for others in itertools.combinations(rest, r):
                A = [1, *others]
                B = [x for x in rest if x not in others]
                for la, lb, kind in itertools.product(
                        range(len(A)), range(len(B)), (MUL, BR)):
                    _graft(a, td, kind, sums[(len(A), la)], A, len(A) > 1,
                           sums[(len(B), lb)], B, len(B) > 1,
                           level[la + lb + (kind == BR)])
        for l, values in level.items():
            sums[(m, l)] = {k: v for k, v in values.items() if not v.is_zero}
            if l <= m - 2:
                table.ops[(m, l)] = _project(td, sums[(m, l)])
    return table


def truncate_to_strict(table: OperationTable) -> OperationTable:
    """Keep only the strict entries (l = k - 2); higher ones are dropped."""
    out = OperationTable(table.algebra, table.td)
    for (k, l), constants in table.ops.items():
        if l == k - 2:
            out.ops[(k, l)] = {key: dict(col) for key, col in constants.items()}
    return out


def check_formal_unit(table: OperationTable,
                      unit_class: Optional[str] = None) -> CheckReport:
    """Unit class acts as identity for the product and kills every other
    stored operation when placed in any argument slot."""
    report = CheckReport("formal-unit")
    u = unit_class if unit_class is not None else table.unit_class()
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

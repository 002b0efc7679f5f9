"""Reference transfer engine for the oracle tests in ``test_engine.py``.

These are the ``Element``-based ``build_operation_table``, ``_graft``,
``_project`` and ``TreeEvaluator`` that ``bvhy.engine`` used before it
carried values as plain ``{name: Fraction}`` dicts, computed one product
list per size class and keyed single trees by their rank shape.  Here
every split recomputes its products and re-applies ``h`` to its children,
and ``TreeEvaluator`` keys its memo by the printed leaf-relabelled tree.
The library must return the same tables, with the same key order.

``truncate_to_strict``, ``nonzero_keys`` and ``bidegree_violations`` are
helpers that only tests use.
"""

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from bvhy.bv import BVAlgebra
from bvhy.engine import Constants, OperationTable
from bvhy.graded import Bidegree, Element, koszul_sign
from bvhy.hodge import TransferData
from bvhy.trees import BR, MUL, DecoratedTree, leaf, unparse_tree

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
    """Add the binary vertex ``kind`` on every pair of child values to ``out``."""
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
        norm = _normalize_leaves(t)
        key = unparse_tree(norm)
        if key not in self._root_tables:
            self._root_tables[key] = _project(self.td, self.value_table(norm))
        return self._root_tables[key]


def build_operation_table(a: BVAlgebra, td: TransferData,
                          max_arity: int) -> OperationTable:
    """Operations (k, l) for 2 <= k <= max_arity and 0 <= l <= k - 2."""
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


def nonzero_keys(table: OperationTable) -> List[Tuple[int, int]]:
    """The ``(k, l)`` whose operation has a nonzero entry, sorted."""
    return sorted(kl for kl, c in table.ops.items() if c)


def bidegree_violations(table: OperationTable) -> List[Tuple]:
    """Entries violating the (-l, -k+2) bidegree law, if any."""
    H = table.td.cohomology
    bad = []
    for (k, l), constants in table.ops.items():
        shift = Bidegree(-l, -k + 2)
        for key, col in constants.items():
            in_deg = Bidegree(*map(sum, zip(*(H.bidegree[n] for n in key))))
            expect = in_deg + shift
            for name in col:
                if H.bidegree[name] != expect:
                    bad.append((k, l, key, name))
    return bad

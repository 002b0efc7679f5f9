"""Reference transfer engine for the oracle tests in ``test_engine.py``.

These are the ``Element``-based ``build_operation_table``, ``_graft``,
``_project`` and ``TreeEvaluator`` that ``bvhy.engine`` used before it
carried values as plain dicts, computed one product list per size class
and keyed single trees by their rank shape.  Here every split recomputes
its products and re-applies ``h`` to its children, and ``TreeEvaluator``
keys its memo by the printed leaf-relabelled tree.
``build_operation_table`` returns the operations as ``{(k, l): {key:
{name: Fraction}}}``, and ``table_json`` writes them as
``serialize.table_to_json`` writes an ``engine.OperationTable``, with
``str(Fraction)``.  The library must return the same tables, with the
same key order, and the same export.

``SubtreeEvaluator`` evaluates single trees with ``{name: Fraction}``
copies of the grafting helpers the engine had before it ran on integers
(``_leaves``, ``_through``, ``_products``, ``_scatter``), which read the
``Fraction`` views ``a.product``, ``a.brackets``, ``td.iota``, ``td.pi``
and ``td.h``; it shares no arithmetic with the engine.  It memoizes each
subtree's sorted leaf labels and values under its hash-consed shape: an
int per tree structure, found by object identity for a tree object it has
seen, so a memo hit neither walks nor compares the subtree.  The
tests use it to sum tables tree by tree and to evaluate trees on
arguments; ``TreeEvaluator`` and ``engine.naive_evaluate_tree`` check it.

``truncate_to_strict``, ``nonzero_keys`` and ``bidegree_violations`` are
helpers that only tests use.
"""

import itertools
from fractions import Fraction
from math import prod
from typing import Dict, List, Sequence, Tuple

from tree_oracle import bidegree_shift
from bvhy.bv import BVAlgebra
from bvhy.engine import OperationTable
from bvhy.elements import Element, apply, bracket, koszul_sign, multiply
from bvhy.graded import Bidegree
from bvhy.hodge import TransferData
from bvhy.trees import BR, DEL, MUL, DecoratedTree, leaf, unparse_tree

Vector = Dict[str, Fraction]
Constants = Dict[Tuple[str, ...], Vector]
Items = List[Tuple[Tuple[str, ...], Vector]]
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
    combine = multiply if kind == MUL else bracket
    labels = left_labels + right_labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rights = [(kr, apply(td.h, vr) if right_vertex else vr)
              for kr, vr in right.items()]
    rights = [(kr, vr) for kr, vr in rights if not vr.is_zero]
    for kl, vl in left.items():
        if left_vertex:
            vl = apply(td.h, vl)
        if vl.is_zero:
            continue
        sign = koszul_sign(1, vl.total_degree) if right_vertex else Fraction(1)
        for kr, vr in rights:
            w = combine(a, vl, vr.scale(sign))
            if w.is_zero:
                continue
            merged = kl + kr
            key = tuple(merged[i] for i in order)
            out[key] = out[key] + w if key in out else w


def _project(td: TransferData, values: ValueTable) -> Constants:
    """Apply ``pi`` at the root and keep the nonzero structure constants."""
    out: Constants = {}
    for key, v in values.items():
        w = apply(td.pi, v)
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
            return {(n,): apply(td.iota, td.cohomology.basis_element(n))
                    for n in td.cohomology.names}
        if t.kind == "del":
            child = t.children[0]
            table = {}
            for k, v in self.value_table(child).items():
                w = apply(a.delta, v if child.is_leaf else apply(td.h, v))
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


# Hash-consing, shared by every evaluator: ``_SEEN[id(t)]`` is ``(t,
# shape)``, holding ``t`` so that its id is not reused, and ``_SHAPES``
# gives each tree structure one int.
_SEEN: Dict[int, Tuple[DecoratedTree, int]] = {}
_SHAPES: Dict[Tuple[str, int, Tuple[int, ...]], int] = {}


def _shape(t: DecoratedTree) -> int:
    """The int naming ``t``'s structure: equal for equal trees, and found
    by identity for a tree object seen before."""
    seen = _SEEN.get(id(t))
    if seen is None:
        key = (t.kind, t.label, tuple(map(_shape, t.children)))
        seen = _SEEN[id(t)] = (t, _SHAPES.setdefault(key, len(_SHAPES)))
    return seen[1]


def _leaves(td: TransferData) -> Constants:
    return {(n,): c for n in td.cohomology.names if (c := td.iota.entries.get(n))}


def _apply(cols: Dict[str, Vector], vec: Vector) -> Vector:
    """The map with columns ``cols[src][tgt]`` on ``vec``, zeros dropped."""
    acc: Vector = {}
    for n, c in vec.items():
        for t, v in cols.get(n, {}).items():
            acc[t] = acc.get(t, 0) + c * v
    return {t: v for t, v in acc.items() if v}


def _through(cols: Dict[str, Vector], items) -> Items:
    """Nonzero images of ``(key, value)`` items under the map ``cols``."""
    return [(k, w) for k, v in items if (w := _apply(cols, v))]


def _products(a: BVAlgebra, kind: str, left: Items, right: Items,
              right_vertex: bool) -> Items:
    """The vertex ``kind`` on every pair of child values, as nonzero ``(left
    key + right key, value)`` pairs, left-major; a right vertex child's
    ``h`` picks up a Koszul sign passing over the left value."""
    table = a.product if kind == MUL else a.brackets
    out: Items = []
    for kl, vl in left:
        if right_vertex and a.space.bidegree[next(iter(vl))].total % 2:
            vl = {n: -c for n, c in vl.items()}
        for kr, vr in right:
            acc: Vector = {}
            for n, c in vl.items():
                for w, cw in vr.items():
                    for t, v in table.get((n, w), {}).items():
                        acc[t] = acc.get(t, 0) + c * cw * v
            if acc := {t: v for t, v in acc.items() if v}:
                out.append((kl + kr, acc))
    return out


def _scatter(products: Items, labels: Sequence[int], out: Constants) -> None:
    """Add ``products`` to ``out``, their merged keys reordered from the
    children's leaf ``labels`` into increasing label order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    for merged, w in products:
        dst = out.setdefault(tuple(merged[i] for i in order), {})
        for t, v in w.items():
            dst[t] = dst.get(t, 0) + v


class SubtreeEvaluator:
    """Memoized evaluation of decorated trees over the harmonic basis."""

    def __init__(self, algebra: BVAlgebra, td: TransferData):
        self.algebra = algebra
        self.td = td
        self._edges: Dict[int, Tuple[List[int], Items]] = {}

    def _values(self, t: DecoratedTree) -> Tuple[List[int], Constants]:
        """Sorted leaf labels of ``t``, and its values before ``pi`` keyed
        in that order; some values may be 0."""
        if t.is_leaf:
            return [t.label], _leaves(self.td)
        if t.kind == DEL:
            labels, items = self._edge(t.children[0])
            return labels, dict(_through(self.algebra.delta.entries, items))
        left, right = t.children
        left_labels, left_items = self._edge(left)
        right_labels, right_items = self._edge(right)
        labels = left_labels + right_labels
        out: Constants = {}
        _scatter(_products(self.algebra, t.kind, left_items, right_items,
                           not right.is_leaf), labels, out)
        return sorted(labels), out

    def _edge(self, t: DecoratedTree) -> Tuple[List[int], Items]:
        """Sorted leaf labels and values of ``t`` as its parent sees them
        (through ``h``)."""
        shape = _shape(t)
        entry = self._edges.get(shape)
        if entry is None:
            labels, values = self._values(t)
            entry = self._edges[shape] = (
                labels, list(values.items()) if t.is_leaf
                else _through(self.td.h.entries, values.items()))
        return entry

    def operation_constants(self, t: DecoratedTree) -> Constants:
        """Structure constants of the induced operation on cohomology."""
        return dict(_through(self.td.pi.entries, self._values(t)[1].items()))

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
                + bidegree_shift(t)
        acc: Dict[str, Fraction] = {}
        for key, col in constants.items():
            if coeff := prod(x.coeffs.get(n, 0) for x, n in zip(args, key)):
                for name, v in col.items():
                    acc[name] = acc.get(name, 0) + coeff * v
        return Element(H, out_deg, acc)


def build_operation_table(a: BVAlgebra, td: TransferData,
                          max_arity: int) -> Dict[Tuple[int, int], Constants]:
    """Operations (k, l) for 2 <= k <= max_arity and 0 <= l <= k - 2."""
    H = td.cohomology
    sums: Dict[Tuple[int, int], ValueTable] = {
        (1, 0): {(n,): apply(td.iota, H.basis_element(n)) for n in H.names}}
    ops = {}
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
                ops[(m, l)] = _project(td, sums[(m, l)])
    return ops


def table_json(td: TransferData, ops: Dict[Tuple[int, int], Constants]) -> dict:
    """``ops`` in the document ``serialize.table_to_json`` writes."""
    H = td.cohomology
    return {"schema": 1,
            "cohomology": [{"name": n, "p": H.bidegree[n].p,
                            "q": H.bidegree[n].q} for n in H.names],
            "operations": [
                {"arity": k, "brackets": l,
                 "kind": "strict" if l == k - 2 else "higher",
                 "entries": sorted([*key, name, str(v)]
                                   for key, col in ops[k, l].items()
                                   for name, v in col.items())}
                for k, l in sorted(ops)]}


def truncate_to_strict(table: OperationTable) -> OperationTable:
    """Keep only the strict entries (l = k - 2); higher ones are dropped."""
    return OperationTable(table.algebra, table.td, {
        (k, l): entry for (k, l), entry in table.tables.items() if l == k - 2})


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

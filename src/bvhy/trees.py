"""Decorated rooted trees: the combinatorial skeleton of the transfer sums.

Leaves carry labels 1..k; internal vertices are decorated ``mul`` or ``br``
(binary) or ``del`` (unary).  Koszul signs for reordering graded-symmetric
vertex arguments are resolved at evaluation time, where argument degrees
are known.

``enumerate_trees`` lists the trivalent trees (no ``del`` vertices) built
from ``engine.splits``, the canonical split rule that
``engine.build_operation_table`` iterates, so both visit splits in one
order.  The rule lives in ``engine`` so that ``transfer`` runs without
this module.  Canonical forms of arbitrary planar trees, delta-tree
enumeration and the bidegree a tree's operation shifts by
(``(-l, -k+2)`` for a trivalent tree with k leaves and l brackets) are
test oracles and live with the tests.

A ``DecoratedTree`` is the tuple ``(kind, label, children)``, whose
equality and hash are the tuple's own, and it checks no shape: the trees
``enumerate_trees`` builds are trivalent by construction, and the test
reader ``parse_tree`` rejects a vertex with the wrong number of children.

``unparse_tree`` prints a tree in the textual syntax below; the reader
``parse_tree``, like the ``mul``, ``br`` and ``delta`` builders, serves
only the tests and lives with them:

    (mul (br 1 2) 3)    (del (mul 1 2))
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .engine import Labels, splits

LEAF = "leaf"
MUL = "mul"
BR = "br"
DEL = "del"

_BINARY = (MUL, BR)


class DecoratedTree(NamedTuple):
    """A vertex and its subtrees.  A tuple, so never changed once built,
    and equal and hashed by structure."""

    kind: str
    label: int = 0
    children: Tuple["DecoratedTree", ...] = ()

    def __repr__(self) -> str:
        return f"DecoratedTree({unparse_tree(self)!r})"

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def leaves(self) -> List[int]:
        if self.is_leaf:
            return [self.label]
        out: List[int] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    @property
    def arity(self) -> int:
        return len(self.leaves())

    def count(self, kind: str) -> int:
        own = 1 if self.kind == kind else 0
        return own + sum(c.count(kind) for c in self.children)


def leaf(i: int) -> DecoratedTree:
    return DecoratedTree(LEAF, label=i)


def unparse_tree(t: DecoratedTree) -> str:
    if t.is_leaf:
        return str(t.label)
    inner = " ".join(unparse_tree(c) for c in t.children)
    return f"({t.kind} {inner})"


def _trivalent_trees(labels: Labels) -> Iterator[DecoratedTree]:
    if len(labels) == 1:
        yield leaf(labels[0])
        return
    for left_labels, right_labels in splits(labels):
        for lt in _trivalent_trees(left_labels):
            for rt in _trivalent_trees(right_labels):
                for kind in _BINARY:
                    yield DecoratedTree(kind, children=(lt, rt))


def enumerate_trees(k: int,
                    constraints: Optional[Dict] = None) -> List[DecoratedTree]:
    """Every trivalent tree with leaves 1..k, once, in canonical form.

    The only constraint is ``bracket_count``; any other key is an error.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    constraints = dict(constraints or {})
    want_br = constraints.pop("bracket_count", None)
    if constraints:
        raise ValueError(f"unknown constraints {sorted(constraints)}")
    return [t for t in _trivalent_trees(tuple(range(1, k + 1)))
            if want_br is None or t.count(BR) == want_br]

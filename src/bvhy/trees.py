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

Textual syntax, round-tripped bit-exactly by ``parse_tree``/``unparse_tree``:

    (mul (br 1 2) 3)    (del (mul 1 2))
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .engine import Labels, splits

LEAF = "leaf"
MUL = "mul"
BR = "br"
DEL = "del"

_BINARY = (MUL, BR)


class DecoratedTree:
    """Never changed once built.  Equality is structural; the hash is taken
    once, from the children's cached hashes, so hashing never walks it."""

    __slots__ = ("kind", "label", "children", "_hash")

    def __init__(self, kind: str, label: int = 0,
                 children: Tuple["DecoratedTree", ...] = ()):
        if kind == LEAF:
            if children:
                raise ValueError("leaf cannot have children")
        elif kind in _BINARY:
            if len(children) != 2:
                raise ValueError(f"{kind} vertex needs exactly 2 children")
        elif kind == DEL:
            if len(children) != 1:
                raise ValueError("del vertex needs exactly 1 child")
        else:
            raise ValueError(f"unknown decoration {kind!r}")
        self.kind, self.label, self.children = kind, label, children
        self._hash = hash((kind, label, children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, DecoratedTree) and self._hash == other._hash
            and (self.kind, self.label, self.children)
            == (other.kind, other.label, other.children))

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


def mul(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(MUL, children=(a, b))


def br(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(BR, children=(a, b))


def delta(a: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(DEL, children=(a,))


def parse_tree(text: str) -> DecoratedTree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tree, rest = _parse_tokens(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest!r} in tree syntax")
    return tree


def _parse_tokens(tokens: List[str]) -> Tuple[DecoratedTree, List[str]]:
    if not tokens:
        raise ValueError("unexpected end of tree syntax")
    tok, rest = tokens[0], tokens[1:]
    if tok == "(":
        if not rest:
            raise ValueError("unexpected end after '('")
        op, rest = rest[0], rest[1:]
        if op not in (MUL, BR, DEL):
            raise ValueError(f"unknown vertex decoration {op!r}")
        children = []
        while rest and rest[0] != ")":
            child, rest = _parse_tokens(rest)
            children.append(child)
        if not rest:
            raise ValueError("missing ')'")
        rest = rest[1:]
        return DecoratedTree(op, children=tuple(children)), rest
    try:
        label = int(tok)
    except ValueError:
        raise ValueError(f"expected leaf label or '(' , got {tok!r}") from None
    return leaf(label), rest


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

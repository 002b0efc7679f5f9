"""Decorated rooted trees: the combinatorial skeleton of the transfer sums.

Leaves carry labels 1..k; internal vertices are decorated ``mul`` or ``br``
(binary) or ``del`` (unary).  Trees are stored planar with a canonical
child order (the child containing the smallest leaf label comes first);
Koszul signs for reordering graded-symmetric vertex arguments are resolved
at evaluation time, where argument degrees are known, so canonicalization
only records the parity of structural swaps.

Textual syntax, round-tripped bit-exactly by ``parse_tree``/``unparse_tree``:

    (mul (br 1 2) 3)    (del (mul 1 2))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .graded import Bidegree

LEAF = "leaf"
MUL = "mul"
BR = "br"
DEL = "del"

_BINARY = (MUL, BR)


@dataclass(frozen=True)
class DecoratedTree:
    kind: str
    label: int = 0
    children: Tuple["DecoratedTree", ...] = ()

    def __post_init__(self):
        if self.kind == LEAF:
            if self.children:
                raise ValueError("leaf cannot have children")
        elif self.kind in _BINARY:
            if len(self.children) != 2:
                raise ValueError(f"{self.kind} vertex needs exactly 2 children")
        elif self.kind == DEL:
            if len(self.children) != 1:
                raise ValueError("del vertex needs exactly 1 child")
        else:
            raise ValueError(f"unknown decoration {self.kind!r}")

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

    def min_leaf(self) -> int:
        return min(self.leaves())

    def count(self, kind: str) -> int:
        own = 1 if self.kind == kind else 0
        return own + sum(c.count(kind) for c in self.children)

    @property
    def delta_count(self) -> int:
        return self.count(DEL)

    @property
    def bracket_count(self) -> int:
        return self.count(BR)

    @property
    def product_count(self) -> int:
        return self.count(MUL)

    @property
    def vertex_count(self) -> int:
        return self.delta_count + self.bracket_count + self.product_count

    def internal_edge_count(self) -> int:
        """Edges whose both endpoints are decorated vertices."""
        if self.is_leaf:
            return 0
        return sum((0 if c.is_leaf else 1) + c.internal_edge_count()
                   for c in self.children)

    def is_trivalent(self) -> bool:
        return self.delta_count == 0


def leaf(i: int) -> DecoratedTree:
    return DecoratedTree(LEAF, label=i)


def mul(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(MUL, children=(a, b))


def br(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(BR, children=(a, b))


def delta(a: DecoratedTree) -> DecoratedTree:
    return DecoratedTree(DEL, children=(a,))


def tree_bidegree(t: DecoratedTree) -> Bidegree:
    """Bidegree of the operation the tree induces on cohomology: each
    bracket or delta contributes (-1,0), each internal edge (0,-1).

    For a trivalent tree with k leaves and l brackets this is (-l, -k+2).
    """
    return Bidegree(-t.bracket_count - t.delta_count, -t.internal_edge_count())


def canonicalize(t: DecoratedTree) -> Tuple[DecoratedTree, Fraction]:
    """Canonical planar form plus the parity sign of child swaps performed.

    Children of binary vertices are ordered by minimal leaf label.  The
    sign records structural swaps only; degree-dependent Koszul signs are
    applied at evaluation time.
    """
    if t.is_leaf:
        return t, Fraction(1)
    if t.kind == DEL:
        c, s = canonicalize(t.children[0])
        return DecoratedTree(DEL, children=(c,)), s
    a, sa = canonicalize(t.children[0])
    b, sb = canonicalize(t.children[1])
    sign = sa * sb
    if a.min_leaf() > b.min_leaf():
        a, b = b, a
        sign = -sign
    return DecoratedTree(t.kind, children=(a, b)), sign


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


def _trivalent_trees(labels: Tuple[int, ...]) -> Iterator[DecoratedTree]:
    """All canonical trivalent trees on the given sorted leaf label set."""
    if len(labels) == 1:
        yield leaf(labels[0])
        return
    first, rest = labels[0], labels[1:]
    # canonical order: the child containing the smallest label comes first
    for r in range(len(rest) + 1):
        for others in itertools.combinations(rest, r):
            left_labels = (first,) + others
            right_labels = tuple(x for x in rest if x not in others)
            if not right_labels:
                continue
            for lt in _trivalent_trees(left_labels):
                for rt in _trivalent_trees(right_labels):
                    for kind in _BINARY:
                        yield DecoratedTree(kind, children=(lt, rt))


def _node_paths(t: DecoratedTree) -> List[Tuple[int, ...]]:
    """Paths (child index sequences) of every node, root included."""
    out: List[Tuple[int, ...]] = [()]
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in _node_paths(c))
    return out


def _wrap_at(t: DecoratedTree, path: Tuple[int, ...]) -> DecoratedTree:
    if not path:
        return DecoratedTree(DEL, children=(t,))
    i = path[0]
    children = list(t.children)
    children[i] = _wrap_at(children[i], path[1:])
    return DecoratedTree(t.kind, children=tuple(children))


def enumerate_trees(k: int, allow_delta: bool = False,
                    constraints: Optional[Dict] = None,
                    max_delta: int = 2) -> List[DecoratedTree]:
    """Complete duplicate-free list of canonical tree classes with k leaves.

    Default enumeration is trivalent (no delta vertices); with
    ``allow_delta`` trees with 1..max_delta delta vertices are included,
    inserted on any edge (stacked deltas allowed).  Constraints may fix
    ``bracket_count``, ``product_count`` or ``delta_count``.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    constraints = dict(constraints or {})
    want_br = constraints.pop("bracket_count", None)
    want_mul = constraints.pop("product_count", None)
    want_del = constraints.pop("delta_count", None)
    if constraints:
        raise ValueError(f"unknown constraints {sorted(constraints)}")
    if not allow_delta:
        if want_del not in (None, 0):
            raise ValueError("delta_count constraint requires allow_delta")
        if want_br is not None and want_mul is not None \
                and k >= 2 and want_br + want_mul != k - 1:
            raise ValueError(
                f"contradictory constraints: product_count + bracket_count "
                f"must be {k - 1} for trivalent trees with {k} leaves")

    labels = tuple(range(1, k + 1))
    skeletons = list(_trivalent_trees(labels))
    out = []
    seen = set()

    def emit(t: DecoratedTree) -> None:
        if want_br is not None and t.bracket_count != want_br:
            return
        if want_mul is not None and t.product_count != want_mul:
            return
        if want_del is not None and t.delta_count != want_del:
            return
        key = unparse_tree(t)
        if key not in seen:
            seen.add(key)
            out.append(t)

    for skel in skeletons:
        emit(skel)
    if allow_delta:
        top = max_delta if want_del is None else want_del
        for skel in skeletons:
            paths = _node_paths(skel)
            for ndel in range(1, top + 1):
                for combo in itertools.combinations_with_replacement(paths, ndel):
                    t = skel
                    # wrap deepest paths first so earlier paths stay valid
                    for path in sorted(combo, key=len, reverse=True):
                        t = _wrap_at(t, path)
                    emit(t)
    return out

"""Test-only tree helpers: the ``mul``, ``br`` and ``delta`` builders and
``parse_tree``, the reader of the syntax ``bvhy.trees.unparse_tree``
prints; canonical forms of arbitrary planar trees, the bidegree a tree's
operation shifts by, and the enumeration of delta-decorated trees.

``parse_tree`` is the one place a tree is read from text, so it checks the
shapes ``DecoratedTree`` does not: a decoration it knows, two children
under ``mul`` and ``br``, one under ``del``.  The builders and the
rewrites here make only those shapes.

The library enumerates trivalent trees only (``bvhy.trees``); delta trees
enter the theory through strong trivialization, which the library checks
with three composites instead of by enumerating trees.
"""

import itertools
from fractions import Fraction
from typing import List, Tuple

from bvhy.graded import Bidegree
from bvhy.trees import BR, DEL, MUL, DecoratedTree, enumerate_trees, leaf


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
        if len(children) != (1 if op == DEL else 2):
            raise ValueError(f"{op} vertex cannot have {len(children)} "
                             f"children")
        return DecoratedTree(op, children=tuple(children)), rest
    try:
        label = int(tok)
    except ValueError:
        raise ValueError(f"expected leaf label or '(' , got {tok!r}") from None
    return leaf(label), rest


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
    if min(a.leaves()) > min(b.leaves()):
        a, b = b, a
        sign = -sign
    return DecoratedTree(t.kind, children=(a, b)), sign


def internal_edge_count(t: DecoratedTree) -> int:
    """Edges whose both endpoints are decorated vertices."""
    if t.is_leaf:
        return 0
    return sum((not c.is_leaf) + internal_edge_count(c) for c in t.children)


def bidegree_shift(t: DecoratedTree) -> Bidegree:
    """Bidegree of the operation the tree induces on cohomology: each
    bracket or delta contributes (-1,0), each internal edge (0,-1).

    For a trivalent tree with k leaves and l brackets this is (-l, -k+2).
    """
    return Bidegree(-t.count(BR) - t.count(DEL), -internal_edge_count(t))


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


def delta_trees(k: int, max_delta: int = 2) -> List[DecoratedTree]:
    """Every tree with k leaves and 1..max_delta delta vertices, inserted
    on any edge of a trivalent tree (stacked deltas allowed)."""
    out = []
    for skel in enumerate_trees(k):
        paths = _node_paths(skel)
        for ndel in range(1, max_delta + 1):
            for combo in itertools.combinations_with_replacement(paths, ndel):
                t = skel
                # wrap deepest paths first so earlier paths stay valid
                for path in sorted(combo, key=len, reverse=True):
                    t = _wrap_at(t, path)
                out.append(t)
    return out

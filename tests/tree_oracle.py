"""Test-only tree helpers: canonical forms of arbitrary planar trees and
the enumeration of delta-decorated trees.

The library enumerates trivalent trees only (``bvhy.trees``); delta trees
enter the theory through strong trivialization, which the library checks
with three composites instead of by enumerating trees.
"""

import itertools
from fractions import Fraction
from typing import List, Tuple

from bvhy.trees import DEL, DecoratedTree, enumerate_trees


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
    """Edges whose both endpoints are decorated vertices, counted by plain
    recursion (``bvhy.trees.tree_bidegree`` counts them in its own walk)."""
    if t.is_leaf:
        return 0
    return sum((not c.is_leaf) + internal_edge_count(c) for c in t.children)


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

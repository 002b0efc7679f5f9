"""Bigraded vector spaces and degree-shifting maps; homogeneous elements
(``BigradedSpace.basis_element`` / ``zero``) are ``elements.Element``s.

Scalars are exact rationals throughout.  A map carries a fixed bidegree
shift and every nonzero entry must connect basis elements whose bidegrees
differ by exactly that shift.  Maps are composed and summed one way: as
``BlockMap``s, integer blocks per bidegree (``compose``, ``add``,
``scalar``).  A map with ``Fraction`` entries, the form in which the model
builders and the tests state one, is a ``rational.GradedMap``;
``bvhy.rational`` is loaded on first use
(``rational``), so no code here imports ``fractions``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import linalg


def rational():
    """The module ``bvhy.rational``, imported on first use, so that a
    command that reads no ``Fraction`` view never loads it."""
    from . import rational as module
    return module


class Bidegree(NamedTuple):
    p: int
    q: int

    def __add__(self, other) -> "Bidegree":
        return Bidegree(self.p + other[0], self.q + other[1])

    def __neg__(self) -> "Bidegree":
        return Bidegree(-self.p, -self.q)

    @property
    def total(self) -> int:
        return self.p + self.q


class BigradedSpace:
    """Ordered basis of named elements, each carrying a bidegree."""

    def __init__(self, basis: Iterable[Tuple[str, Bidegree]]):
        self.names: List[str] = []
        self.bidegree: Dict[str, Bidegree] = {}
        for name, deg in basis:
            if name in self.bidegree:
                raise ValueError(f"duplicate basis name {name!r}")
            self.names.append(name)
            self.bidegree[name] = Bidegree(*deg)
        self.index = {n: i for i, n in enumerate(self.names)}
        self._by_bidegree: Dict[Bidegree, List[str]] = {}
        for n in self.names:
            self._by_bidegree.setdefault(self.bidegree[n], []).append(n)

    @property
    def dim(self) -> int:
        return len(self.names)

    def names_at(self, deg: Bidegree) -> List[str]:
        return self._by_bidegree.get(Bidegree(*deg), [])

    def occupied_bidegrees(self) -> List[Bidegree]:
        return sorted(self._by_bidegree)

    def basis_element(self, name: str) -> "Element":
        from fractions import Fraction

        from .elements import Element
        if name not in self.bidegree:
            raise ValueError(f"{name!r} is not a basis element")
        return Element(self, self.bidegree[name], {name: Fraction(1)})

    def zero(self, deg: Optional[Bidegree] = None) -> "Element":
        from .elements import Element
        return Element(self, deg, {})

    def __contains__(self, name: str) -> bool:
        return name in self.bidegree

    def __repr__(self):
        return f"BigradedSpace(dim={self.dim})"


class BlockMap(NamedTuple):
    """A map as the one form in which maps are composed and summed: a
    ``linalg.Block`` per source bidegree; a missing block is zero."""
    source: BigradedSpace
    target: BigradedSpace
    shift: Bidegree
    blocks: Dict[Bidegree, linalg.Block]


def compose(f: BlockMap, g: BlockMap) -> BlockMap:
    """f after g, one block product per source bidegree of g; where f has
    no block at the middle bidegree, the product is zero and left out."""
    return BlockMap(g.source, f.target, f.shift + g.shift, {
        deg: linalg.mul(f.blocks[mid], block)
        for deg, block in g.blocks.items() if (mid := deg + g.shift) in f.blocks})


def add(*maps: BlockMap) -> BlockMap:
    """The sum of maps of one shift between the same spaces."""
    terms: Dict[Bidegree, List[linalg.Block]] = {}
    for m in maps:
        for deg, block in m.blocks.items():
            terms.setdefault(deg, []).append(block)
    return maps[0]._replace(blocks={deg: linalg.add(t)
                                    for deg, t in terms.items()})


def scalar(space: BigradedSpace, c: int) -> BlockMap:
    """``c`` times the identity of ``space``."""
    return BlockMap(space, space, Bidegree(0, 0), {
        deg: linalg.scalar(len(space.names_at(deg)), c)
        for deg in space.occupied_bidegrees()})

"""Bigraded vector spaces and degree-shifting maps.

Scalars are exact rationals throughout.  A map carries a fixed bidegree
shift and every nonzero entry must connect basis elements whose bidegrees
differ by exactly that shift.  Maps are composed and summed one way: as
``BlockMap``s, integer blocks per bidegree (``compose``, ``add``,
``scalar``).  Every ``Fraction`` value, such as a map's view as a
``rational.GradedMap`` or the homogeneous ``rational.Element``s that
``BigradedSpace.basis_element`` and ``zero`` make, lives in
``bvhy.rational``, loaded on first use (``rational``), so no code here
imports ``fractions``.
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
        return self._by_bidegree.get(deg, [])

    def occupied_bidegrees(self) -> List[Bidegree]:
        return sorted(self._by_bidegree)

    def basis_element(self, name: str) -> "Element":
        if name not in self.bidegree:
            raise ValueError(f"{name!r} is not a basis element")
        r = rational()
        return r.Element(self, self.bidegree[name], {name: r.Fraction(1)})

    def zero(self, deg: Optional[Bidegree] = None) -> "Element":
        return rational().Element(self, deg, {})

    def __contains__(self, name: str) -> bool:
        return name in self.bidegree

    def __repr__(self):
        return f"BigradedSpace(dim={self.dim})"


class BlockMap(NamedTuple):
    """A map as the one form in which maps are composed and summed: a
    ``linalg.Block`` per source bidegree; a missing block is zero."""
    # Dense blocks rather than sparse ``bv.Table``s: composing tables cut
    # check_side_conditions on the seed-0 transfer-massey documents from
    # about 0.3 ms to 0.12 ms, but raised it on seed-0 validate-hodge,
    # where Hodge work dominates, from 3.3 ms to 8.4 ms (CPython 3.11,
    # 2 vCPUs).
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

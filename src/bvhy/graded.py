"""Bigraded vector spaces, homogeneous elements, and degree-shifting maps.

Scalars are exact rationals throughout.  A map carries a fixed bidegree
shift and every nonzero entry must connect basis elements whose bidegrees
differ by exactly that shift; ``GradedMap.validate_shift`` enforces this.
Maps are composed and summed one way: as ``BlockMap``s, integer blocks per
bidegree (``GradedMap.to_blocks``, ``compose``, ``add``, ``scalar``), and
read back by ``GradedMap.from_blocks``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import linalg

Scalar = Fraction


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


def koszul_sign(deg_passed: int, deg_over: int) -> Scalar:
    """Sign picked up when something of degree ``deg_passed`` moves past
    something of degree ``deg_over``: (-1)^(deg_passed * deg_over)."""
    return Fraction(-1) if (deg_passed * deg_over) % 2 else Fraction(1)


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
        if name not in self.bidegree:
            raise ValueError(f"{name!r} is not a basis element")
        return Element(self, self.bidegree[name], {name: Fraction(1)})

    def zero(self, deg: Optional[Bidegree] = None) -> "Element":
        return Element(self, deg, {})

    def __contains__(self, name: str) -> bool:
        return name in self.bidegree

    def __repr__(self):
        return f"BigradedSpace(dim={self.dim})"


class Element:
    """Homogeneous element: a linear combination of basis elements sharing
    one bidegree.  The zero element may carry a bidegree or ``None``."""

    def __init__(self, space: BigradedSpace, bidegree: Optional[Bidegree],
                 coeffs: Optional[Dict[str, Scalar]] = None):
        self.space, self.bidegree = space, bidegree
        self.coeffs = {n: c for n, c in (coeffs or {}).items() if c != 0}
        for n in self.coeffs:
            if n not in space.bidegree:
                raise ValueError(f"{n!r} not in space")
            if bidegree is not None and space.bidegree[n] != bidegree:
                raise ValueError(f"{n!r} is not homogeneous of bidegree {bidegree}")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def total_degree(self) -> int:
        if self.bidegree is None:
            return 0
        return self.bidegree.total

    def scale(self, c: Scalar) -> "Element":
        return Element(self.space, self.bidegree, {n: c * v for n, v in self.coeffs.items()})

    def __add__(self, other: "Element") -> "Element":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.bidegree != other.bidegree:
            raise ValueError("sum of elements of different bidegrees is not homogeneous")
        out = dict(self.coeffs)
        for n, v in other.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + v
        return Element(self.space, self.bidegree, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.is_zero or self.bidegree == other.bidegree
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{n}" for n, c in sorted(self.coeffs.items()))


class GradedMap:
    """Linear map between bigraded spaces with a fixed bidegree shift.

    Entries are stored column-sparse: ``entries[src][tgt] = coefficient``.
    """

    def __init__(self, source: BigradedSpace, target: BigradedSpace,
                 shift: Bidegree, entries: Optional[Dict[str, Dict[str, Scalar]]] = None):
        self.source = source
        self.target = target
        self.shift = Bidegree(*shift)
        self.entries: Dict[str, Dict[str, Scalar]] = {}
        if entries:
            for src, col in entries.items():
                for tgt, c in col.items():
                    if c != 0:
                        self.entries.setdefault(src, {})[tgt] = c

    @classmethod
    def zero(cls, source: BigradedSpace, target: BigradedSpace,
             shift: Bidegree) -> "GradedMap":
        return cls(source, target, shift, {})

    def set_entry(self, src: str, tgt: str, c: Scalar) -> None:
        if c == 0:
            self.entries.get(src, {}).pop(tgt, None)
        else:
            self.entries.setdefault(src, {})[tgt] = c

    def apply(self, x: Element) -> Element:
        if x.space is not self.source and x.space.names != self.source.names:
            raise ValueError("element not in the source space")
        out: Dict[str, Scalar] = {}
        for n, c in x.coeffs.items():
            for tgt, v in self.entries.get(n, {}).items():
                out[tgt] = out.get(tgt, Fraction(0)) + c * v
        deg = None if x.bidegree is None else x.bidegree + self.shift
        return Element(self.target, deg, out)

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    @property
    def is_zero(self) -> bool:
        return all(not col for col in self.entries.values())

    def nonzero_entries(self) -> List[Tuple[str, str, Scalar]]:
        return [(s, t, v) for s, col in sorted(self.entries.items())
                for t, v in sorted(col.items())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (self.shift == other.shift
                and self.nonzero_entries() == other.nonzero_entries())

    def validate_shift(self) -> List[Tuple[str, str]]:
        """Entries violating the shift invariant; empty list means valid."""
        bad = []
        for src, col in self.entries.items():
            sdeg = self.source.bidegree[src]
            for tgt in col:
                if self.target.bidegree[tgt] != sdeg + self.shift:
                    bad.append((src, tgt))
        return bad

    def to_blocks(self) -> BlockMap:
        """The map as a ``BlockMap``: at each source bidegree ``deg`` some
        entry leaves, the block with rows the target names at deg+shift and
        columns the names at deg, over the lcm of its denominators."""
        blocks = {}
        for deg in self.source.occupied_bidegrees():
            cols = [self.entries.get(s, {}) for s in self.source.names_at(deg)]
            if any(cols):
                den = lcm(*[v.denominator for col in cols for v in col.values()])
                blocks[deg] = [[col[t].numerator * (den // col[t].denominator)
                                if t in col else 0 for col in cols]
                               for t in self.target.names_at(deg + self.shift)
                               ], den
        return BlockMap(self.source, self.target, self.shift, blocks)

    @classmethod
    def from_blocks(cls, source: BigradedSpace, target: BigradedSpace,
                    shift: Bidegree, blocks: Dict[Bidegree, linalg.Block]
                    ) -> "GradedMap":
        """The inverse of ``to_blocks``: the map whose block at each source
        bidegree ``deg`` of ``blocks`` is ``blocks[deg]``; every other
        block is zero."""
        out = cls(source, target, shift)
        for deg, (rows, den) in blocks.items():
            tgt_names = target.names_at(deg + out.shift)
            for src, col in zip(source.names_at(deg), zip(*rows)):
                if any(col):
                    out.entries[src] = {t: Fraction(x, den)
                                        for t, x in zip(tgt_names, col) if x}
        return out


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

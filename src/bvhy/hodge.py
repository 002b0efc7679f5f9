"""Transfer data from finite-dimensional Hodge theory.

Given an inner product (block Gram matrices per bidegree) we form the
adjoint differential d* and, in one pass over the bidegrees on dense
integer blocks (``linalg.Block``), the Laplacian block L = d d* + d* d.
One elimination of ``[L | I]`` gives the kernel of L, which names the
cohomology and is the harmonic inclusion ``iota``, and a generalised
inverse of L; the projection ``pi`` and the exact Green operator G
(inverse of L on the orthogonal complement of its kernel) follow by block
products, and ``h = d* G``.  Every map is written from its blocks by
``GradedMap.from_blocks``.  The five homotopy-retract identities are
checked as exact sums of block products, and the three trivialization
composites by composing maps.  ``check_transfer_input`` is the one
pipeline that decides whether an algebra is a valid transfer input: BV
axioms, then transfer data, side conditions and strong trivialization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, check_bv_axioms
from .graded import Bidegree, BigradedSpace, GradedMap
from .reporting import CheckReport


class InnerProduct:
    """Block-diagonal symmetric positive-definite Gram form over the
    rationals; one block per occupied bidegree, rows/cols in basis order.
    A bidegree missing from ``blocks`` gets the identity block.  The
    blocks are kept as integer ``linalg.Block``s."""

    def __init__(self, space: BigradedSpace,
                 blocks: Optional[Dict[Bidegree, linalg.Matrix]] = None):
        self.space = space
        blocks = blocks or {}
        self.blocks: Dict[Bidegree, linalg.Block] = {}
        for deg in space.occupied_bidegrees():
            n = len(space.names_at(deg))
            if deg not in blocks:
                self.blocks[deg] = linalg.scalar(n, 1)
                continue
            block = blocks[deg]
            if len(block) != n or any(len(row) != n for row in block):
                raise ValueError(f"gram block at {tuple(deg)} has wrong shape")
            self.blocks[deg] = linalg.to_block(block)
            if not linalg.is_positive_definite(self.blocks[deg]):
                raise ValueError(f"gram block at {tuple(deg)} is not "
                                 f"symmetric positive-definite")

    @classmethod
    def from_entries(cls, space: BigradedSpace,
                     entries: List[Tuple[str, str, Fraction]]) -> "InnerProduct":
        blocks: Dict[Bidegree, linalg.Matrix] = {}
        seen = set()
        for a, b, v in entries:
            da, db = space.bidegree[a], space.bidegree[b]
            if da != db:
                raise ValueError(f"gram entry ({a},{b}) crosses bidegrees")
            if frozenset((a, b)) in seen:
                raise ValueError(f"gram entry ({a},{b}) is given twice")
            seen.add(frozenset((a, b)))
            names = space.names_at(da)
            i, j = names.index(a), names.index(b)
            if da not in blocks:
                blocks[da] = linalg.identity(len(names))
            blocks[da][i][j] = blocks[da][j][i] = Fraction(v)
        return cls(space, blocks)

    def block(self, deg: Bidegree) -> linalg.Block:
        return self.blocks[Bidegree(*deg)]


class TransferData:
    """Harmonic cohomology ``H`` with the maps of the homotopy retract."""

    def __init__(self, cohomology: BigradedSpace, iota: GradedMap,
                 pi: GradedMap, h: GradedMap, green: GradedMap):
        self.cohomology = cohomology
        self.iota = iota     # H -> B, shift (0,0)
        self.pi = pi         # B -> H, shift (0,0)
        self.h = h           # B -> B, shift (0,-1)
        self.green = green   # B -> B, shift (0,0)


# A map as its dense blocks: its shift, and a Block per source bidegree;
# a missing block is zero.
BlockMap = Tuple[Bidegree, Dict[Bidegree, linalg.Block]]


def _blocks(m: GradedMap) -> BlockMap:
    return m.shift, {deg: m.block(deg) for deg in m.source.occupied_bidegrees()
                     if any(m.entries.get(s) for s in m.source.names_at(deg))}


def _compose(f: BlockMap, g: BlockMap) -> BlockMap:
    """f after g, one block product per source bidegree of g; where f has
    no block at the middle bidegree, the product is zero and left out."""
    (fshift, fblocks), (gshift, gblocks) = f, g
    return fshift + gshift, {deg: linalg.mul(fblocks[mid], block)
                             for deg, block in gblocks.items()
                             if (mid := deg + gshift) in fblocks}


def _sum(*maps: BlockMap) -> BlockMap:
    """The sum of maps of one shift, block by block."""
    terms: Dict[Bidegree, List[linalg.Block]] = {}
    for _shift, blocks in maps:
        for deg, block in blocks.items():
            terms.setdefault(deg, []).append(block)
    return maps[0][0], {deg: linalg.add(t) for deg, t in terms.items()}


def _scalar(space: BigradedSpace, c: int) -> BlockMap:
    """``c`` times the identity of ``space``."""
    return Bidegree(0, 0), {deg: linalg.scalar(len(space.names_at(deg)), c)
                            for deg in space.occupied_bidegrees()}


def adjoint_differential(a: BVAlgebra, ip: InnerProduct) -> BlockMap:
    """d*, with <d x, y> = <x, d* y>: for each nonzero block of d from
    ``deg`` to ``up``, the block G^-1 d^T G' from ``up`` to ``deg``."""
    shift, blocks = _blocks(a.d)
    return -shift, {
        deg + shift: linalg.mul(
            linalg.inverse(ip.block(deg)),
            linalg.mul((linalg.transpose(rows), den), ip.block(deg + shift)))
        for deg, (rows, den) in blocks.items()}


def _harmonic_name(names: List[str], vec: List[Fraction], deg: Bidegree,
                   idx: int) -> str:
    support = [i for i, c in enumerate(vec) if c != 0]
    if len(support) == 1 and vec[support[0]] == 1:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def build_transfer_data(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> TransferData:
    """At each bidegree, on integer blocks: the Laplacian block
    L = d d* + d* d, then one elimination of [L | I] that gives both the
    kernel of L, whose basis rows K name the cohomology, and a generalised
    inverse L# (L L# L = L).  iota is K^T and pi = (K S K^T)^-1 K S for
    the Gram block S, so pi iota = id; P = iota pi projects orthogonally
    onto ker L.  Since P L = L P = 0, the Green block (I - P) L# (I - P)
    is the one G with L G = G L = id - P and G P = 0.  The homotopy is
    h = d* G."""
    space = a.space
    if ip is None:
        ip = InnerProduct(space)
    d, dstar = _blocks(a.d), adjoint_differential(a, ip)
    lap = _sum(_scalar(space, 0), _compose(d, dstar), _compose(dstar, d))[1]
    hbasis: List[Tuple[str, Bidegree]] = []
    iota_blocks, pi_blocks, green_blocks = {}, {}, {}
    for deg in space.occupied_bidegrees():
        names = space.names_at(deg)
        kern, green = linalg.kernel_and_inverse(lap[deg])
        hbasis += [(_harmonic_name(names, vec, deg, i), deg)
                   for i, vec in enumerate(kern)]
        if kern:
            k, kden = linalg.to_block(kern)
            kt = iota_blocks[deg] = linalg.transpose(k), kden
            ktg = linalg.mul((k, kden), ip.block(deg))
            pi = pi_blocks[deg] = linalg.mul(
                linalg.inverse(linalg.mul(ktg, kt)), ktg)
            # (P - I) L# (P - I) = (I - P) L# (I - P)
            off = linalg.add([linalg.mul(kt, pi), linalg.scalar(len(names), -1)])
            green = linalg.mul(off, linalg.mul(green, off))
        green_blocks[deg] = green

    cohomology = BigradedSpace(hbasis)
    green = Bidegree(0, 0), green_blocks
    return TransferData(
        cohomology,
        GradedMap.from_blocks(cohomology, space, Bidegree(0, 0), iota_blocks),
        GradedMap.from_blocks(space, cohomology, Bidegree(0, 0), pi_blocks),
        GradedMap.from_blocks(space, space, *_compose(dstar, green)),
        GradedMap.from_blocks(space, space, *green))


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly.

    Each identity is a sum of block products per source bidegree, in
    integers over one denominator; the map of its residual blocks is the
    item's witness."""
    space, coh = a.space, td.cohomology
    d, h, iota, pi = (_blocks(m) for m in (a.d, td.h, td.iota, td.pi))
    report = CheckReport("side-conditions")
    for name, source, target, residual in (
            ("pi iota = id", coh, coh,
             _sum(_compose(pi, iota), _scalar(coh, -1))),
            ("d h + h d = id - iota pi", space, space,
             _sum(_compose(d, h), _compose(h, d), _scalar(space, -1),
                  _compose(iota, pi))),
            ("h iota = 0", coh, space, _compose(h, iota)),
            ("h h = 0", space, space, _compose(h, h)),
            ("pi h = 0", space, coh, _compose(pi, h))):
        report.add_zero(name, GradedMap.from_blocks(source, target, *residual))
    return report


def check_strong_trivialization_composites(td: TransferData,
                                           a: BVAlgebra) -> CheckReport:
    """delta iota = 0, pi delta = 0, h delta h = 0.

    When all three hold, every decorated tree containing a delta vertex
    evaluates to zero, since the vertex is sandwiched between iota/pi/h.
    """
    report = CheckReport("strong-trivialization")
    report.add_zero("delta iota = 0", a.delta.compose(td.iota))
    report.add_zero("pi delta = 0", td.pi.compose(a.delta))
    report.add_zero("h delta h = 0", td.h.compose(a.delta).compose(td.h))
    return report


def check_transfer_input(a: BVAlgebra, ip: Optional[InnerProduct] = None
                         ) -> Tuple[Optional[TransferData], List[CheckReport]]:
    """Run the BV axioms, then build transfer data and check its side
    conditions and strong trivialization (tables sum trivalent trees
    only, so every delta tree must vanish).

    Returns ``(td, reports)``; ``td`` is None if the axioms fail, and then
    no later check runs.  The input is valid iff every report passed.
    """
    axioms = check_bv_axioms(a)
    if not axioms.passed:
        return None, [axioms]
    td = build_transfer_data(a, ip)
    return td, [axioms, check_side_conditions(td, a),
                check_strong_trivialization_composites(td, a)]

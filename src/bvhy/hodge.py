"""Transfer data from finite-dimensional Hodge theory.

Given an inner product (block Gram matrices per bidegree) we form the
adjoint differential d* and, in one pass over the bidegrees on dense
integer blocks (``linalg.Block``), the Laplacian block L = d d* + d* d.
One elimination of ``[L | I]`` gives the kernel of L, which names the
cohomology and is the harmonic inclusion ``iota``, and a generalised
inverse of L; the projection ``pi`` and the exact Green operator G
(inverse of L on the orthogonal complement of its kernel) follow by block
products, and ``h = d* G``.  Every map is written from its blocks by
``GradedMap.from_blocks``.  The five homotopy-retract identities and the
three trivialization composites are block residuals, composed and summed
by ``graded.compose`` and ``graded.add``.  ``check_transfer_input`` is the one
pipeline that decides whether an algebra is a valid transfer input: BV
axioms, then transfer data, side conditions and strong trivialization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, check_bv_axioms
from .graded import (Bidegree, BigradedSpace, BlockMap, GradedMap, add,
                     compose, scalar)
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


class TransferData(NamedTuple):
    """Harmonic cohomology ``H`` with the maps of the homotopy retract."""
    cohomology: BigradedSpace
    iota: GradedMap      # H -> B, shift (0,0)
    pi: GradedMap        # B -> H, shift (0,0)
    h: GradedMap         # B -> B, shift (0,-1)
    green: GradedMap     # B -> B, shift (0,0)


def adjoint_differential(a: BVAlgebra, ip: InnerProduct) -> BlockMap:
    """d*, with <d x, y> = <x, d* y>: for each nonzero block of d from
    ``deg`` to ``up``, the block G^-1 d^T G' from ``up`` to ``deg``."""
    d = a.d.to_blocks()
    return BlockMap(d.target, d.source, -d.shift, {
        deg + d.shift: linalg.mul(
            linalg.inverse(ip.block(deg)),
            linalg.mul((linalg.transpose(rows), den), ip.block(deg + d.shift)))
        for deg, (rows, den) in d.blocks.items()})


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
    d, dstar = a.d.to_blocks(), adjoint_differential(a, ip)
    lap = add(scalar(space, 0), compose(d, dstar), compose(dstar, d)).blocks
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
    green = BlockMap(space, space, Bidegree(0, 0), green_blocks)
    return TransferData(
        cohomology,
        GradedMap.from_blocks(cohomology, space, Bidegree(0, 0), iota_blocks),
        GradedMap.from_blocks(space, cohomology, Bidegree(0, 0), pi_blocks),
        GradedMap.from_blocks(*compose(dstar, green)),
        GradedMap.from_blocks(*green))


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly,
    each as the ``BlockMap`` of its residual."""
    d, h, iota, pi = (m.to_blocks() for m in (a.d, td.h, td.iota, td.pi))
    report = CheckReport("side-conditions")
    report.add_residual("pi iota = id", add(compose(pi, iota),
                                            scalar(td.cohomology, -1)))
    report.add_residual("d h + h d = id - iota pi", add(
        compose(d, h), compose(h, d), scalar(a.space, -1), compose(iota, pi)))
    report.add_residual("h iota = 0", compose(h, iota))
    report.add_residual("h h = 0", compose(h, h))
    report.add_residual("pi h = 0", compose(pi, h))
    return report


def check_strong_trivialization_composites(td: TransferData,
                                           a: BVAlgebra) -> CheckReport:
    """delta iota = 0, pi delta = 0, h delta h = 0, as block residuals.

    When all three hold, every decorated tree containing a delta vertex
    evaluates to zero, since the vertex is sandwiched between iota/pi/h.
    """
    delta, h, iota, pi = (m.to_blocks()
                          for m in (a.delta, td.h, td.iota, td.pi))
    report = CheckReport("strong-trivialization")
    report.add_residual("delta iota = 0", compose(delta, iota))
    report.add_residual("pi delta = 0", compose(pi, delta))
    report.add_residual("h delta h = 0", compose(h, compose(delta, h)))
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

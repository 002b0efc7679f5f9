"""Transfer data from finite-dimensional Hodge theory.

Given an inner product (block Gram matrices per bidegree) we form the
adjoint differential, the Laplacian L = d d* + d* d, and then, in one
pass over the bidegrees on dense blocks, the harmonic inclusion ``iota``,
the projection ``pi`` and the exact Green operator G (inverse of L on the
orthogonal complement of its kernel); ``h = d* G``.  Every map is written
from its blocks by ``GradedMap.from_blocks``.  All five homotopy-retract
identities and the three trivialization composites are checked with exact
equality.  ``check_transfer_input`` is the one pipeline that decides
whether an algebra is a valid transfer input: BV axioms, then transfer
data, side conditions and strong trivialization.
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
    A bidegree missing from ``blocks`` gets the identity block."""

    def __init__(self, space: BigradedSpace,
                 blocks: Optional[Dict[Bidegree, linalg.Matrix]] = None):
        self.space = space
        blocks = blocks or {}
        self.blocks: Dict[Bidegree, linalg.Matrix] = {
            deg: [row[:] for row in blocks[deg]] if deg in blocks
            else linalg.identity(len(space.names_at(deg)))
            for deg in space.occupied_bidegrees()}
        for deg, block in self.blocks.items():
            n = len(space.names_at(deg))
            if len(block) != n or any(len(row) != n for row in block):
                raise ValueError(f"gram block at {deg} has wrong shape")
            if not linalg.is_positive_definite(block):
                raise ValueError(
                    f"gram block at {deg} is not symmetric positive-definite")

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

    def block(self, deg: Bidegree) -> linalg.Matrix:
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


def adjoint_differential(a: BVAlgebra, ip: InnerProduct) -> GradedMap:
    """d* with <d x, y> = <x, d* y>, built blockwise as G^-1 d^T G'."""
    blocks = {}
    for deg in a.space.occupied_bidegrees():
        up = deg + Bidegree(0, 1)
        if a.space.names_at(up):
            # d*: (p,q+1) -> (p,q)
            blocks[up] = linalg.mat_mul(
                linalg.inverse(ip.block(deg)),
                linalg.mat_mul(linalg.transpose(a.d.block(deg)[0]),
                               ip.block(up)))
    return GradedMap.from_blocks(a.space, a.space, Bidegree(0, -1), blocks)


def _harmonic_name(names: List[str], vec: List[Fraction], deg: Bidegree,
                   idx: int) -> str:
    support = [i for i, c in enumerate(vec) if c != 0]
    if len(support) == 1 and vec[support[0]] == 1:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def build_transfer_data(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> TransferData:
    """At each bidegree, the rows of K span the kernel of the Laplacian
    block L and name the cohomology; iota is K^T, pi = (K G K^T)^-1 K G,
    so pi iota = id; P = K^T pi projects orthogonally onto ker L, and the
    Green block (L + P)^-1 - P has L green = green L = id - P."""
    space = a.space
    if ip is None:
        ip = InnerProduct(space)
    dstar = adjoint_differential(a, ip)
    lap = a.d.compose(dstar) + dstar.compose(a.d)
    hbasis: List[Tuple[str, Bidegree]] = []
    iota_blocks, pi_blocks, green_blocks = {}, {}, {}
    for deg in space.occupied_bidegrees():
        names = space.names_at(deg)
        lblock = lap.block(deg)[0]
        kern = linalg.kernel_basis(lblock)
        hbasis += [(_harmonic_name(names, vec, deg, i), deg)
                   for i, vec in enumerate(kern)]
        if kern:
            iota_blocks[deg] = linalg.transpose(kern)
            ktg = linalg.mat_mul(kern, ip.block(deg))
            pi_blocks[deg] = linalg.mat_mul(
                linalg.inverse(linalg.mat_mul(ktg, iota_blocks[deg])), ktg)
            proj = linalg.mat_mul(iota_blocks[deg], pi_blocks[deg])
        else:
            proj = linalg.zeros(len(names), len(names))
        # L + P is invertible; its inverse restricted off the kernel is G
        green_blocks[deg] = linalg.mat_sub(
            linalg.inverse(linalg.mat_add(lblock, proj)), proj)

    cohomology = BigradedSpace(hbasis)
    iota = GradedMap.from_blocks(cohomology, space, Bidegree(0, 0), iota_blocks)
    pi = GradedMap.from_blocks(space, cohomology, Bidegree(0, 0), pi_blocks)
    green = GradedMap.from_blocks(space, space, Bidegree(0, 0), green_blocks)
    return TransferData(cohomology, iota, pi, dstar.compose(green), green)


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly."""
    report = CheckReport("side-conditions")
    report.add_zero("pi iota = id", td.pi.compose(td.iota)
                    - GradedMap.identity(td.cohomology))
    report.add_zero("d h + h d = id - iota pi",
                    a.d.compose(td.h) + td.h.compose(a.d)
                    - GradedMap.identity(a.space) + td.iota.compose(td.pi))
    report.add_zero("h iota = 0", td.h.compose(td.iota))
    report.add_zero("h h = 0", td.h.compose(td.h))
    report.add_zero("pi h = 0", td.pi.compose(td.h))
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

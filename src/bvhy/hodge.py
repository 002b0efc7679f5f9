"""Transfer data from finite-dimensional Hodge theory.

Given an inner product (block Gram matrices per bidegree) we form the
adjoint differential, the Laplacian L = d d* + d* d, the exact Green
operator (inverse of L on the orthogonal complement of its kernel), and
from these the contraction ``h = d* G`` together with the harmonic
inclusion ``iota`` and projection ``pi``.  All five homotopy-retract
identities and the three trivialization composites are checked with exact
equality.  ``check_transfer_input`` is the one pipeline that decides
whether an algebra is a valid transfer input: BV axioms, then transfer
data, side conditions and strong trivialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, check_bv_axioms
from .graded import Bidegree, BigradedSpace, GradedMap
from .reporting import CheckReport


class InnerProduct:
    """Block-diagonal symmetric positive-definite Gram form over the
    rationals; one block per occupied bidegree, rows/cols in basis order."""

    def __init__(self, space: BigradedSpace,
                 blocks: Optional[Dict[Bidegree, linalg.Matrix]] = None):
        self.space = space
        self.blocks: Dict[Bidegree, linalg.Matrix] = {}
        for deg in space.occupied_bidegrees():
            n = len(space.names_at(deg))
            if blocks and Bidegree(*deg) in blocks:
                self.blocks[deg] = [row[:] for row in blocks[Bidegree(*deg)]]
            else:
                self.blocks[deg] = linalg.identity(n)
        self.validate()

    @classmethod
    def identity(cls, space: BigradedSpace) -> "InnerProduct":
        return cls(space)

    @classmethod
    def from_entries(cls, space: BigradedSpace,
                     entries: List[Tuple[str, str, Fraction]]) -> "InnerProduct":
        blocks: Dict[Bidegree, linalg.Matrix] = {}
        for deg in space.occupied_bidegrees():
            blocks[deg] = linalg.identity(len(space.names_at(deg)))
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
            blocks[da][i][j] = Fraction(v)
            blocks[da][j][i] = Fraction(v)
        return cls(space, blocks)

    def validate(self) -> None:
        for deg, block in self.blocks.items():
            n = len(self.space.names_at(deg))
            if len(block) != n or any(len(row) != n for row in block):
                raise ValueError(f"gram block at {deg} has wrong shape")
            if not linalg.is_positive_definite(block):
                raise ValueError(
                    f"gram block at {deg} is not symmetric positive-definite")

    def block(self, deg: Bidegree) -> linalg.Matrix:
        return self.blocks[Bidegree(*deg)]


@dataclass
class TransferData:
    cohomology: BigradedSpace
    iota: GradedMap     # H -> B, shift (0,0)
    pi: GradedMap       # B -> H, shift (0,0)
    h: GradedMap        # B -> B, shift (0,-1)
    green: GradedMap    # B -> B, shift (0,0)


def adjoint_differential(a: BVAlgebra, ip: InnerProduct) -> GradedMap:
    """d* with <d x, y> = <x, d* y>, built blockwise as G^-1 d^T G'."""
    space = a.space
    dstar = GradedMap.zero(space, space, Bidegree(0, -1))
    for deg in space.occupied_bidegrees():
        up = deg + Bidegree(0, 1)
        block, src_names, tgt_names = a.d.block(deg)
        if not src_names or not tgt_names:
            continue
        g_low = ip.block(deg)
        g_high = ip.block(up)
        # d*: (p,q+1) -> (p,q)
        m = linalg.mat_mul(linalg.inverse(g_low),
                           linalg.mat_mul(linalg.transpose(block), g_high))
        for j, src in enumerate(tgt_names):
            for i, tgt in enumerate(src_names):
                dstar.set_entry(src, tgt, m[i][j])
    return dstar


def _laplacian(a: BVAlgebra, dstar: GradedMap) -> GradedMap:
    return a.d.compose(dstar) + dstar.compose(a.d)


def _decompose(a: BVAlgebra, ip: InnerProduct, dstar: GradedMap):
    """Per bidegree, the harmonic basis (kernel of the Laplacian L built
    from ``dstar``) as (name, column vector) pairs; the Green operator, with
    L green = green L = id - P for P the orthogonal projection onto ker L;
    and, where the kernel K is nonempty, harmonic coordinates
    (K^T G K)^-1 K^T G."""
    space = a.space
    lap = _laplacian(a, dstar)
    green = GradedMap.zero(space, space, Bidegree(0, 0))
    harmonic: Dict[Bidegree, List[Tuple[str, List[Fraction]]]] = {}
    coords: Dict[Bidegree, linalg.Matrix] = {}
    for deg in space.occupied_bidegrees():
        names = space.names_at(deg)
        n = len(names)
        lblock, _, _ = lap.block(deg)
        kern = linalg.kernel_basis(lblock)
        harmonic[deg] = [(_harmonic_name(names, vec, deg, i), vec)
                         for i, vec in enumerate(kern)]
        # orthogonal projection K (K^T G K)^-1 K^T G onto the kernel
        if kern:
            ktg = linalg.mat_mul(kern, ip.block(deg))
            gram = linalg.mat_mul(ktg, linalg.transpose(kern))
            coords[deg] = linalg.mat_mul(linalg.inverse(gram), ktg)
            proj = linalg.mat_mul(linalg.transpose(kern), coords[deg])
        else:
            proj = linalg.zeros(n, n)
        # L + P is invertible; its inverse restricted off the kernel is G
        lp = linalg.mat_add(lblock, proj)
        gblock = linalg.mat_sub(linalg.inverse(lp), proj)
        for j, src in enumerate(names):
            for i, tgt in enumerate(names):
                green.set_entry(src, tgt, gblock[i][j])
    return harmonic, green, coords


def _harmonic_name(names: List[str], vec: List[Fraction], deg: Bidegree,
                   idx: int) -> str:
    support = [i for i, c in enumerate(vec) if c != 0]
    if len(support) == 1 and vec[support[0]] == 1:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def build_transfer_data(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> TransferData:
    space = a.space
    if ip is None:
        ip = InnerProduct.identity(space)
    dstar = adjoint_differential(a, ip)
    harmonic, green, coords = _decompose(a, ip, dstar)

    hbasis = []
    for deg in space.occupied_bidegrees():
        for label, _vec in harmonic[deg]:
            hbasis.append((label, deg))
    cohomology = BigradedSpace(hbasis)

    iota = GradedMap.zero(cohomology, space, Bidegree(0, 0))
    pi = GradedMap.zero(space, cohomology, Bidegree(0, 0))
    for deg, pmat in coords.items():
        names = space.names_at(deg)
        cols = harmonic[deg]
        for label, vec in cols:
            for i, c in enumerate(vec):
                if c != 0:
                    iota.set_entry(label, names[i], c)
        # pi is the harmonic coordinates, so pi iota = id
        for j, src in enumerate(names):
            for i, (label, _vec) in enumerate(cols):
                pi.set_entry(src, label, pmat[i][j])

    h = dstar.compose(green)
    return TransferData(cohomology, iota, pi, h, green)


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly."""
    report = CheckReport("side-conditions")
    pid = td.pi.compose(td.iota) - GradedMap.identity(td.cohomology)
    report.add("pi iota = id", pid.is_zero, pid.nonzero_entries()[:3] or None)
    homotopy = a.d.compose(td.h) + td.h.compose(a.d) \
        - GradedMap.identity(a.space) + td.iota.compose(td.pi)
    report.add("d h + h d = id - iota pi", homotopy.is_zero,
               homotopy.nonzero_entries()[:3] or None)
    for name, comp in (("h iota = 0", td.h.compose(td.iota)),
                       ("h h = 0", td.h.compose(td.h)),
                       ("pi h = 0", td.pi.compose(td.h))):
        report.add(name, comp.is_zero, comp.nonzero_entries()[:3] or None)
    return report


def check_strong_trivialization_composites(td: TransferData,
                                           a: BVAlgebra) -> CheckReport:
    """delta iota = 0, pi delta = 0, h delta h = 0.

    When all three hold, every decorated tree containing a delta vertex
    evaluates to zero, since the vertex is sandwiched between iota/pi/h.
    """
    report = CheckReport("strong-trivialization")
    for name, comp in (
            ("delta iota = 0", a.delta.compose(td.iota)),
            ("pi delta = 0", td.pi.compose(a.delta)),
            ("h delta h = 0", td.h.compose(a.delta).compose(td.h))):
        report.add(name, comp.is_zero, comp.nonzero_entries()[:3] or None)
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

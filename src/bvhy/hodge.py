"""Transfer data from finite-dimensional Hodge theory.

The contraction (iota, pi, h) of the Hodge decomposition B = H + im d +
im d* for a Gram form S, on integer blocks (``linalg.Block``), with no
Laplacian L = d d* + d* d or Green operator G yet the same values:
H = ker L is the kernel of [D_out ; D_in^T S], which has L's row space and
so its (unique) reduced row echelon form; h = d* G is d's Gram-metric
Moore-Penrose inverse; and G = h h* + h* h.  ``check_transfer_input``
checks a transfer input: BV axioms, then transfer data, side conditions
and strong trivialization, all block residuals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

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


def _view(i: int) -> cached_property:
    return cached_property(lambda td: GradedMap.from_blocks(*td.blocks[i]))


class TransferData:
    """Harmonic cohomology H with ``blocks``, the ``BlockMap``s (iota, pi, h)
    that the checks compose; the ``GradedMap`` views ``iota`` (H -> B), ``pi``
    (B -> H), ``h`` (shift (0,-1)) and ``green`` are made when first read."""

    def __init__(self, cohomology: BigradedSpace, iota: BlockMap,
                 pi: BlockMap, h: BlockMap, ip: InnerProduct):
        self.cohomology, self.blocks, self.ip = cohomology, (iota, pi, h), ip

    iota, pi, h = _view(0), _view(1), _view(2)

    @cached_property
    def green(self) -> GradedMap:
        """G = h h* + h* h, for the Gram adjoint h* (S^-1 H^T S' per block)."""
        h, gram = self.blocks[2], self.ip.block
        hstar = BlockMap(h.target, h.source, -h.shift, {
            deg + h.shift: linalg.solve(gram(deg), linalg.mul(
                (linalg.transpose(rows), den), gram(deg + h.shift)))
            for deg, (rows, den) in h.blocks.items()})
        return GradedMap.from_blocks(*add(compose(h, hstar), compose(hstar, h)))


def _harmonic_name(names: List[str], vec: List[int], den: int, deg: Bidegree,
                   idx: int) -> str:
    support = [i for i, c in enumerate(vec) if c]
    if len(support) == 1 and vec[support[0]] == den:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def _pseudo_inverse(d: linalg.Block, sa: linalg.Block, sb: linalg.Block):
    """D's reduced rows R and its Moore-Penrose inverse X (Y D X)^-1 Y in
    the Gram metrics sa, sb: X, the kernel of N^T sa for the kernel N of D,
    spans (ker D)-perp as sa^-1 R^T does, and Y = F^T sb, for the pivot
    columns F of D, vanishes on (im D)-perp.  Neither needs sa^-1."""
    n = len(sa[0])
    reduced, pivots = linalg.rref(d[0], n)
    null = linalg.mul(linalg.kernel(reduced, n), sa)[0]
    x = linalg.transpose(linalg.kernel(null, n)[0]), 1
    y = linalg.mul(([[row[c] for row in d[0]] for c in pivots], 1), sb)
    return reduced, linalg.mul(
        x, linalg.solve(linalg.mul(linalg.mul(y, d), x), y))


def build_transfer_data(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> TransferData:
    """Per bidegree, with S the Gram block and D_out, D_in the blocks of d
    out of and into it: the kernel basis rows K of [D_out ; D_in^T S]
    (D_out as its reduced rows) name the cohomology; iota = K^T,
    pi = (K S K^T)^-1 K S; and h back along D_out is its pseudo-inverse."""
    space, ip = a.space, ip or InnerProduct(a.space)
    d, up, down = a.d.to_blocks(), Bidegree(0, 1), Bidegree(0, -1)
    hbasis, iota_blocks, pi_blocks, h_blocks = [], {}, {}, {}
    for deg in space.occupied_bidegrees():
        names, s = space.names_at(deg), ip.block(deg)
        rows: List[List[int]] = []
        if deg in d.blocks:
            rows, h_blocks[deg + up] = _pseudo_inverse(d.blocks[deg], s,
                                                       ip.block(deg + up))
        if (low := deg + down) in d.blocks:
            rows = rows + linalg.mul(
                (linalg.transpose(d.blocks[low][0]), 1), s)[0]
        k, kden = linalg.kernel(rows, len(names))
        hbasis += [(_harmonic_name(names, vec, kden, deg, i), deg)
                   for i, vec in enumerate(k)]
        if k:
            kt = iota_blocks[deg] = linalg.transpose(k), kden
            ktg = linalg.mul((k, kden), s)
            pi_blocks[deg] = linalg.solve(linalg.mul(ktg, kt), ktg)
    cohomology = BigradedSpace(hbasis)
    return TransferData(
        cohomology, BlockMap(cohomology, space, Bidegree(0, 0), iota_blocks),
        BlockMap(space, cohomology, Bidegree(0, 0), pi_blocks),
        BlockMap(space, space, down, h_blocks), ip)


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly,
    each as the ``BlockMap`` of its residual."""
    d, (iota, pi, h) = a.d.to_blocks(), td.blocks
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
    delta, (iota, pi, h) = a.delta.to_blocks(), td.blocks
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

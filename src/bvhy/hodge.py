"""Transfer data from finite-dimensional Hodge theory.

The contraction (iota, pi, h) of the Hodge decomposition B = H + im d +
im d* for a Gram form S, on integer blocks (``linalg.Block``), with no
Laplacian L = d d* + d* d or Green operator G yet the same values:
H = ker L is the kernel of [D_out ; D_in^T S], which has L's row space and
so its (unique) reduced row echelon form; h = d* G is d's Gram-metric
Moore-Penrose inverse; pi is read off id - d h - h d = iota pi; and
G = h h* + h* h.  ``check_transfer_input`` checks a transfer input: BV
axioms, then transfer data, side conditions and strong trivialization,
all block residuals.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, check_bv_axioms, columns
from .graded import (Bidegree, BigradedSpace, BlockMap, add, compose,
                     rational, scalar)
from .reporting import CheckReport


class InnerProduct:
    """Block-diagonal symmetric positive-definite Gram form over the
    rationals; one block per occupied bidegree, rows/cols in basis order,
    kept as an integer ``linalg.Block`` (``elements.to_block`` makes one of
    a matrix of ``Fraction``s).  A bidegree missing from ``blocks`` gets the
    identity block."""

    def __init__(self, space: BigradedSpace,
                 blocks: Optional[Dict[Bidegree, linalg.Block]] = None):
        self.space = space
        blocks = blocks or {}
        self.blocks: Dict[Bidegree, linalg.Block] = {}
        for deg in space.occupied_bidegrees():
            n, block = len(space.names_at(deg)), blocks.get(deg)
            if block is None:
                block = linalg.scalar(n, 1)
            else:
                if len(block[0]) != n or any(len(row) != n for row in block[0]):
                    raise ValueError(f"gram block at {tuple(deg)} has wrong "
                                     f"shape")
                if not linalg.is_positive_definite(block):
                    raise ValueError(f"gram block at {tuple(deg)} is not "
                                     f"symmetric positive-definite")
            self.blocks[deg] = block

    def block(self, deg: Bidegree) -> linalg.Block:
        return self.blocks[Bidegree(*deg)]


class TransferData:
    """Harmonic cohomology H with ``blocks``, the ``BlockMap``s (iota, pi, h)
    that the checks compose.  Made when first read: ``tables``, the same
    maps as ``bv.Table``s, which the engine reads, and the ``GradedMap``
    views of those, ``iota`` (H -> B), ``pi`` (B -> H) and ``h`` (shift
    (0,-1)), and ``green``."""

    def __init__(self, cohomology: BigradedSpace, iota: BlockMap,
                 pi: BlockMap, h: BlockMap, ip: InnerProduct):
        self.cohomology, self.blocks, self.ip = cohomology, (iota, pi, h), ip

    tables = cached_property(lambda td: tuple(map(columns, td.blocks)))
    iota, pi, h = (cached_property(lambda td, i=i: rational().map_view(
        td.tables[i], td.blocks[i].source, td.blocks[i].target))
        for i in range(3))
    green = cached_property(lambda td: rational().green(td))


def _harmonic_name(names: List[str], vec: List[int], den: int, deg: Bidegree,
                   idx: int) -> str:
    support = [i for i, c in enumerate(vec) if c]
    if len(support) == 1 and vec[support[0]] == den:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def _pseudo_inverse(d: linalg.Block, sa: linalg.Block, sb: linalg.Block):
    """D's reduced rows R, the kernel N of D with its free columns, the
    rows Y = F^T sb for the pivot columns F of D, and D's Moore-Penrose
    inverse X (Y D X)^-1 Y in the Gram metrics sa, sb: X, the kernel of
    N^T sa, spans (ker D)-perp as sa^-1 R^T does, and Y vanishes on
    (im D)-perp.  Neither needs sa^-1."""
    n = len(sa[0])
    reduced, pivots = linalg.rref(d[0], n)
    null = linalg.kernel(reduced, n)
    x = linalg.transpose(linalg.kernel(linalg.mul(null[0], sa)[0], n)[0][0]), 1
    y = linalg.mul(([[row[c] for row in d[0]] for c in pivots], 1), sb)
    return reduced, null, y[0], linalg.mul(
        x, linalg.solve(linalg.mul(linalg.mul(y, d), x), y))


def build_transfer_data(a: BVAlgebra, ip: Optional[InnerProduct] = None) -> TransferData:
    """Per bidegree, with S the Gram block and D_out, D_in the blocks of d
    out of and into it: the kernel basis rows K of [D_out ; F_in^T S]
    (D_out as its reduced rows, F_in the pivot columns of D_in, which span
    its column space) name the cohomology; iota = K^T; h back along D_out
    is its pseudo-inverse; and pi is the rows of id - d h - h d at the
    free columns of K, where iota has the rows of the identity."""
    space, ip = a.space, ip or InnerProduct(a.space)
    d, up, down = a.blocks[0], Bidegree(0, 1), Bidegree(0, -1)
    hbasis, iota_blocks, pi_blocks, h_blocks = [], {}, {}, {}
    # the rows F_in^T S at the target of each d block; the free columns of
    # each nonzero kernel
    dual, free = {}, {}
    for deg in space.occupied_bidegrees():
        names, incoming = space.names_at(deg), dual.get(deg)
        if deg in d.blocks:
            reduced, kern, dual[deg + up], h_blocks[deg + up] = \
                _pseudo_inverse(d.blocks[deg], ip.block(deg),
                                ip.block(deg + up))
            if incoming:
                kern = linalg.kernel(reduced + incoming, len(names))
        else:
            kern = linalg.kernel(incoming or [], len(names))
        (k, kden), cols = kern
        hbasis += [(_harmonic_name(names, vec, kden, deg, i), deg)
                   for i, vec in enumerate(k)]
        if k:
            iota_blocks[deg] = linalg.transpose(k), kden
            free[deg] = cols
    for deg, cols in free.items():
        terms = [([[int(c == f) for c in range(len(space.names_at(deg)))]
                   for f in cols], 1)]
        # minus the rows of d h, then of h d
        for left, right in ((d.blocks.get(deg + down), h_blocks.get(deg)),
                            (h_blocks.get(deg + up), d.blocks.get(deg))):
            if right is not None:
                rows, den = left
                terms.append(linalg.mul(([[-x for x in rows[f]] for f in cols],
                                         den), right))
        pi_blocks[deg] = linalg.add(terms)
    cohomology = BigradedSpace(hbasis)
    return TransferData(
        cohomology, BlockMap(cohomology, space, Bidegree(0, 0), iota_blocks),
        BlockMap(space, cohomology, Bidegree(0, 0), pi_blocks),
        BlockMap(space, space, down, h_blocks), ip)


def check_side_conditions(td: TransferData, a: BVAlgebra) -> CheckReport:
    """The two retract identities and the three side conditions, exactly,
    each as the ``BlockMap`` of its residual."""
    (d, _), (iota, pi, h) = a.blocks, td.blocks
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
    (_, delta), (iota, pi, h) = a.blocks, td.blocks
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

"""``Fraction`` views: maps and tables keyed by basis names, with exact
``Fraction`` values.

The algebra (``bv.Table``) and the transfer data (``graded.BlockMap``)
are held as integers over common denominators, and ``validate`` reads
nothing else.  The engine, ``elements`` and the tests read the views
that ``algebra_view`` and ``from_blocks`` make, as ``GradedMap``s and
``{(x, y): {t: Fraction}}`` tables, and perfbench the Green operator
(``green``).  ``BVAlgebra`` and ``TransferData`` make their views here,
through ``graded.rational``, the first time one is read, so that
``validate`` never loads this module or ``fractions``.  The conversions
the other way, of the ``Fraction`` inputs the model builders and the
tests state, are in ``elements``, which ``transfer`` does not load.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .graded import Bidegree, BigradedSpace, BlockMap, add, compose

Vector = Dict[str, Fraction]
ProductTable = Dict[Tuple[str, str], Vector]


class GradedMap:
    """Linear map between bigraded spaces with a fixed bidegree shift.

    Entries are stored column-sparse: ``entries[src][tgt] = coefficient``.
    """

    def __init__(self, source: BigradedSpace, target: BigradedSpace,
                 shift: Bidegree, entries: Optional[Dict[str, Dict[str, Fraction]]] = None):
        self.source = source
        self.target = target
        self.shift = Bidegree(*shift)
        self.entries: Dict[str, Dict[str, Fraction]] = {}
        if entries:
            for src, col in entries.items():
                for tgt, c in col.items():
                    if c != 0:
                        self.entries.setdefault(src, {})[tgt] = c

    @classmethod
    def zero(cls, source: BigradedSpace, target: BigradedSpace,
             shift: Bidegree) -> "GradedMap":
        return cls(source, target, shift, {})

    def set_entry(self, src: str, tgt: str, c: Fraction) -> None:
        if c == 0:
            self.entries.get(src, {}).pop(tgt, None)
        else:
            self.entries.setdefault(src, {})[tgt] = c


def algebra_view(a, name: str):
    """The table ``name`` of the ``BVAlgebra`` ``a`` keyed by basis names,
    with ``Fraction`` values: a ``GradedMap`` for ``d`` and ``delta``, a
    ``ProductTable`` for ``product`` and ``brackets``."""
    names, table = a.space.names, getattr(a.tables, name)
    # one Fraction per distinct constant, shared like a document's scalars
    value = {v: Fraction(v, table.den)
             for col in table.cols.values() for v in col.values()}
    cols = {key: {names[t]: value[v] for t, v in col.items()}
            for key, col in table.cols.items()}
    if name in ("d", "delta"):
        out = GradedMap(a.space, a.space, table.shift)
        out.entries = {names[s]: col for s, col in cols.items()}
        return out
    return {(names[x], names[y]): col for (x, y), col in cols.items()}


def from_blocks(m: BlockMap) -> GradedMap:
    """The ``GradedMap`` whose block at each source bidegree ``deg`` of
    ``m.blocks`` is ``m.blocks[deg]``; every other block is zero."""
    out = GradedMap(m.source, m.target, m.shift)
    for deg, (rows, den) in m.blocks.items():
        tgt_names = m.target.names_at(deg + out.shift)
        for src, col in zip(m.source.names_at(deg), zip(*rows)):
            if any(col):
                out.entries[src] = {t: Fraction(x, den)
                                    for t, x in zip(tgt_names, col) if x}
    return out


def green(td) -> GradedMap:
    """G = h h* + h* h of the transfer data ``td``, for the Gram adjoint h*
    (S^-1 H^T S' per block)."""
    h, gram = td.blocks[2], td.ip.block
    hstar = BlockMap(h.target, h.source, -h.shift, {
        deg + h.shift: linalg.solve(gram(deg), linalg.mul(
            (linalg.transpose(rows), den), gram(deg + h.shift)))
        for deg, (rows, den) in h.blocks.items()})
    return from_blocks(add(compose(h, hstar), compose(hstar, h)))

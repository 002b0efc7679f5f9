"""``Fraction`` views: maps and tables keyed by basis names, with exact
``Fraction`` values.

The algebra (``bv.Table``), the transfer data (``graded.BlockMap``, and
``bv.Table``s read off its blocks by ``bv.columns``) and the transferred
operations (``engine.OperationTable``) are held as integers over common
denominators, and neither ``validate`` nor ``transfer`` reads anything
else.  ``elements``, ``search`` and the tests read the views made here,
every one from index-keyed integer columns by one conversion (``_view``):
``GradedMap``s (``map_view``, ``from_blocks``), ``{(x, y): {t:
Fraction}}`` tables (``algebra_view``) and the operations
(``operations_view``); perfbench reads the Green operator (``green``) too.
``BVAlgebra``, ``TransferData`` and ``OperationTable`` make their views
here, through ``graded.rational``, the first time one is read, so that
neither command loads this module or ``fractions``.  The conversions the
other way, of the ``Fraction`` inputs the model builders and the tests
state, are in ``elements``, which neither command loads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .bv import columns
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


def _view(cols: Dict, den: int, key, names) -> Dict:
    """The columns ``cols``, integers over ``den``, keyed ``key(k)`` for
    each key ``k``, targets by ``names``, values as ``Fraction``s: one per
    distinct constant, shared like a document's scalars."""
    value = {v: Fraction(v, den) for col in cols.values() for v in col.values()}
    return {key(k): {names[i]: value[v] for i, v in col.items()}
            for k, col in cols.items()}


def map_view(t, source: BigradedSpace, target: BigradedSpace) -> GradedMap:
    """The ``GradedMap`` from ``source`` to ``target`` of the ``bv.Table``
    ``t``, columns in ``t``'s order."""
    out = GradedMap(source, target, t.shift)
    out.entries = _view(t.cols, t.den, source.names.__getitem__, target.names)
    return out


def algebra_view(a, name: str):
    """The table ``name`` of the ``BVAlgebra`` ``a`` keyed by basis names,
    with ``Fraction`` values: a ``GradedMap`` for ``d`` and ``delta``, a
    ``ProductTable`` for ``product`` and ``brackets``."""
    names, table = a.space.names, getattr(a.tables, name)
    if name in ("d", "delta"):
        return map_view(table, a.space, a.space)
    return _view(table.cols, table.den,
                 lambda key: (names[key[0]], names[key[1]]), names)


def from_blocks(m: BlockMap) -> GradedMap:
    """The ``GradedMap`` whose block at each source bidegree ``deg`` of
    ``m.blocks`` is ``m.blocks[deg]``: the view of ``bv.columns(m)``."""
    return map_view(columns(m), m.source, m.target)


def operations_view(table) -> Dict:
    """The operations of the ``engine.OperationTable`` ``table`` keyed by
    harmonic basis names, ``{(k, l): {(x1, ..., xk): {t: Fraction}}}``, in
    the order of ``table.tables``."""
    names = table.td.cohomology.names
    return {kl: _view(constants, den,
                      lambda key: tuple(map(names.__getitem__, key)), names)
            for kl, (constants, den) in table.tables.items()}


def green(td) -> GradedMap:
    """G = h h* + h* h of the transfer data ``td``, for the Gram adjoint h*
    (S^-1 H^T S' per block)."""
    h, gram = td.blocks[2], td.ip.block
    hstar = BlockMap(h.target, h.source, -h.shift, {
        deg + h.shift: linalg.solve(gram(deg), linalg.mul(
            (linalg.transpose(rows), den), gram(deg + h.shift)))
        for deg, (rows, den) in h.blocks.items()})
    return from_blocks(add(compose(h, hstar), compose(hstar, h)))

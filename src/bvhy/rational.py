"""Every ``Fraction`` value of the package: views of the integer tables
keyed by basis names, and homogeneous ``Element``s with the maps and
operations applied to them.

The algebra (``bv.Table``), the transfer data (``graded.BlockMap``, read
into ``bv.Table``s by ``bv.columns``) and the transferred operations
(``engine.OperationTable``) are integers over common denominators, and no
command reads anything else or loads this module.  The tests and
perfbench's output checks read the views, each made from index-keyed
integer columns by one conversion (``_view``): ``GradedMap``s
(``map_view``, ``from_blocks``, ``green``), name-keyed tables
(``algebra_view``) and the operations (``operations_view``).
``BVAlgebra``, ``TransferData`` and ``OperationTable`` make theirs here,
through ``graded.rational``, when first read.  ``Element`` arithmetic
(``apply``, ``multiply``, ``bracket``, ``koszul_sign``) serves
``engine.naive_evaluate_tree``, the oracle of the tests and the
benchmark, and the tests' other oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .bv import BVAlgebra, _add_into, _left, columns
from .graded import Bidegree, BigradedSpace, BlockMap, add, compose

Vector = Dict[str, Fraction]
ProductTable = Dict[Tuple[str, str], Vector]


def koszul_sign(deg_passed: int, deg_over: int) -> Fraction:
    """Sign picked up when something of degree ``deg_passed`` moves past
    something of degree ``deg_over``: (-1)^(deg_passed * deg_over)."""
    return Fraction(-1) if (deg_passed * deg_over) % 2 else Fraction(1)


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


class Element:
    """Homogeneous element: a linear combination of basis elements sharing
    one bidegree.  The zero element may carry a bidegree or ``None``."""

    def __init__(self, space: BigradedSpace, bidegree: Optional[Bidegree],
                 coeffs: Optional[Dict[str, Fraction]] = None):
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

    def scale(self, c: Fraction) -> "Element":
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


def apply(m: GradedMap, x: Element) -> Element:
    """The map ``m`` on the element ``x`` of its source."""
    if x.space is not m.source and x.space.names != m.source.names:
        raise ValueError("element not in the source space")
    out: Dict[str, Fraction] = {}
    for n, c in x.coeffs.items():
        for tgt, v in m.entries.get(n, {}).items():
            out[tgt] = out.get(tgt, Fraction(0)) + c * v
    deg = None if x.bidegree is None else x.bidegree + m.shift
    return Element(m.target, deg, out)


def multiply(a: BVAlgebra, x: Element, y: Element) -> Element:
    """Bilinear product via the structure constants."""
    return _expand(a, a.product, x, y, Bidegree(0, 0))


def bracket(a: BVAlgebra, x: Element, y: Element) -> Element:
    """Derived bracket, expanded bilinearly over ``a.brackets``."""
    return _expand(a, a.brackets, x, y, a.delta.shift)


def _expand(a: BVAlgebra, table: ProductTable, x: Element, y: Element,
            shift: Bidegree) -> Element:
    acc: Vector = {}
    for n, c in x.coeffs.items():
        _add_into(acc, _left(table, n, y.coeffs), c)
    deg = None
    if x.bidegree is not None and y.bidegree is not None:
        deg = x.bidegree + y.bidegree + shift
    return Element(a.space, deg, acc)

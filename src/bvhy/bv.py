"""Finite-dimensional dg BV-algebras and exact axiom checking.

A ``BVAlgebra`` bundles a bigraded space, a differential of shift (0,1),
an odd operator ``delta`` of shift (-1,0), a graded-commutative product
given by structure constants, and a unit at bidegree (0,0).

The bracket is not stored: it is derived from ``delta`` and the product as

    [x, y] = delta(x y) - delta(x) y - (-1)^|x| x delta(y)

so that the order-2 compatibility checked in ``check_bv_axioms`` is
automatically the right one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .graded import Bidegree, BigradedSpace, Element, GradedMap, koszul_sign
from .reporting import CheckReport

ProductTable = Dict[Tuple[str, str], Dict[str, Fraction]]


class BVAlgebra:
    def __init__(self, space: BigradedSpace, d: GradedMap, delta: GradedMap,
                 product: ProductTable, unit: str):
        if unit not in space.bidegree:
            raise ValueError(f"unit {unit!r} not in basis")
        if space.bidegree[unit] != Bidegree(0, 0):
            raise ValueError("unit must sit at bidegree (0,0)")
        self.space = space
        self.d = d
        self.delta = delta
        self.unit = unit
        self.product = _symmetrize(space, product)

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear product via the structure constants."""
        out: Dict[str, Fraction] = {}
        deg = None
        if x.bidegree is not None and y.bidegree is not None:
            deg = x.bidegree + y.bidegree
        for a, ca in x.coeffs.items():
            for b, cb in y.coeffs.items():
                for t, v in self.product.get((a, b), {}).items():
                    out[t] = out.get(t, Fraction(0)) + ca * cb * v
        return Element(self.space, deg, out)

    def bracket(self, x: Element, y: Element) -> Element:
        """Derived bracket; vanishes identically when delta = 0."""
        t1 = self.delta(self.multiply(x, y))
        t2 = self.multiply(self.delta(x), y)
        t3 = self.multiply(x, self.delta(y)).scale(koszul_sign(1, x.total_degree))
        return t1 - t2 - t3

    def unit_element(self) -> Element:
        return self.space.basis_element(self.unit)

    def basis_product(self, a: str, b: str) -> Element:
        deg = self.space.bidegree[a] + self.space.bidegree[b]
        return Element(self.space, deg, dict(self.product.get((a, b), {})))


def _symmetrize(space: BigradedSpace, product: ProductTable) -> ProductTable:
    """Fill in missing mirror entries by graded commutativity.

    If both orders are present they are kept as given; any inconsistency is
    surfaced by the commutativity item of ``check_bv_axioms``.
    """
    table: ProductTable = {}
    for (a, b), col in product.items():
        cleaned = {t: v for t, v in col.items() if v != 0}
        if cleaned:
            table[(a, b)] = cleaned
    for (a, b) in list(table):
        if (b, a) in table or a == b:
            continue
        sign = koszul_sign(space.bidegree[a].total, space.bidegree[b].total)
        table[(b, a)] = {t: sign * v for t, v in table[(a, b)].items()}
    return table


def evaluate_product(a: BVAlgebra, x: Element, y: Element) -> Element:
    return a.multiply(x, y)


def derived_bracket(a: BVAlgebra, x: Element, y: Element) -> Element:
    return a.bracket(x, y)


def check_bv_axioms(a: BVAlgebra) -> CheckReport:
    """Exact verification of all dg BV-algebra axioms.

    Brute-force over basis tuples, pruned to tuples where some term of the
    identity under test can be nonzero (everything else is zero = zero).
    """
    report = CheckReport("bv-axioms")
    space = a.space

    report.add("d has shift (0,1)",
               a.d.shift == Bidegree(0, 1) and not a.d.validate_shift(),
               a.d.validate_shift() or None)
    report.add("delta has shift (-1,0)",
               a.delta.shift == Bidegree(-1, 0) and not a.delta.validate_shift(),
               a.delta.validate_shift() or None)

    dd = a.d.compose(a.d)
    report.add("d^2 = 0", dd.is_zero, dd.nonzero_entries()[:3] or None)
    qq = a.delta.compose(a.delta)
    report.add("delta^2 = 0", qq.is_zero, qq.nonzero_entries()[:3] or None)
    anti = a.d.compose(a.delta) + a.delta.compose(a.d)
    report.add("d delta + delta d = 0", anti.is_zero,
               anti.nonzero_entries()[:3] or None)

    unit = a.unit_element()
    witness = None
    for n in space.names:
        x = space.basis_element(n)
        if a.multiply(unit, x) != x:
            witness = (a.unit, n)
            break
    report.add("unit law", witness is None, witness)

    report.add("delta(unit) = 0", a.delta(unit).is_zero, a.unit)

    witness = None
    for (x, y), col in a.product.items():
        sign = koszul_sign(space.bidegree[x].total, space.bidegree[y].total)
        mirror = {t: sign * v for t, v in a.product.get((y, x), {}).items()}
        if mirror != col:
            witness = (x, y)
            break
    if witness is None:
        # squares of odd elements must vanish
        for n in space.names:
            if space.bidegree[n].total % 2 and a.product.get((n, n)):
                witness = (n, n)
                break
    report.add("graded commutativity", witness is None, witness)

    report.add("associativity", *_check_associativity(a))
    report.add("d is a derivation of the product", *_check_derivation(a))
    report.add("delta has order <= 2 (bracket Leibniz)", *_check_order_two(a))
    return report


def _check_associativity(a: BVAlgebra):
    space = a.space
    names = space.names
    for (x, y) in _triple_candidates(a):
        ex, ey = space.basis_element(x), space.basis_element(y)
        xy = a.multiply(ex, ey)
        for z in names:
            ez = space.basis_element(z)
            lhs = a.multiply(xy, ez)
            rhs = a.multiply(ex, a.multiply(ey, ez))
            if lhs != rhs:
                return False, (x, y, z)
    return True, None


def _triple_candidates(a: BVAlgebra):
    """Ordered pairs (x,y) with xy != 0, each yielded once; triples where
    no pairwise product is nonzero satisfy any trilinear identity trivially."""
    seen = set()
    for (x, y) in a.product:
        for pair in ((x, y), (y, x)):
            if pair not in seen:
                seen.add(pair)
                yield pair


def _check_derivation(a: BVAlgebra):
    space = a.space
    # insertion-ordered, so the first witness follows product and basis order
    pairs = dict.fromkeys(a.product)
    # also pairs whose product is zero but whose d-images multiply nonzero
    d_support = {n: list(a.d.entries.get(n, {})) for n in space.names}
    first_index: Dict[str, List[str]] = {}
    for (u, v) in a.product:
        first_index.setdefault(u, []).append(v)
    for n in space.names:
        for s in d_support[n]:
            for v in first_index.get(s, []):
                pairs[(n, v)] = None
                pairs[(v, n)] = None
    for (x, y) in pairs:
        ex, ey = space.basis_element(x), space.basis_element(y)
        lhs = a.d(a.multiply(ex, ey))
        rhs = a.multiply(a.d(ex), ey) + \
            a.multiply(ex, a.d(ey)).scale(koszul_sign(1, ex.total_degree))
        if lhs != rhs:
            return False, (x, y)
    return True, None


def _check_order_two(a: BVAlgebra):
    """Leibniz rule for the derived bracket:

        [x, yz] = [x,y] z + (-1)^((|x|+1)|y|) y [x,z]

    equivalent to the seven-term order-2 identity given commutativity.
    Triples where no pair (with or without a delta applied) multiplies
    nonzero satisfy the identity trivially and are skipped; the rest are
    checked with memoized dictionary arithmetic.
    """
    import itertools

    space = a.space
    names = space.names
    product = a.product
    delta_entries = a.delta.entries
    delta_support = {n: list(delta_entries.get(n, {})) for n in names}
    first_index: Dict[str, List[str]] = {}
    for (u, v) in product:
        first_index.setdefault(u, []).append(v)

    # insertion-ordered, so the first witness follows product and basis order
    candidates: Dict[Tuple[str, str, str], None] = {}
    for (u, v) in product:
        for z in names:
            candidates[tuple(sorted((u, v, z)))] = None
    for n in names:
        for s in delta_support[n]:
            for v in first_index.get(s, []):
                for z in names:
                    candidates[tuple(sorted((n, v, z)))] = None

    zero: Dict[str, Fraction] = {}

    def add_into(acc: Dict[str, Fraction], vec: Dict[str, Fraction],
                 c: Fraction) -> None:
        for n, v in vec.items():
            acc[n] = acc.get(n, Fraction(0)) + c * v

    def mul_vec_basis(vec: Dict[str, Fraction], z: str) -> Dict[str, Fraction]:
        acc: Dict[str, Fraction] = {}
        for w, c in vec.items():
            col = product.get((w, z))
            if col:
                add_into(acc, col, c)
        return acc

    def mul_basis_vec(x: str, vec: Dict[str, Fraction]) -> Dict[str, Fraction]:
        acc: Dict[str, Fraction] = {}
        for w, c in vec.items():
            col = product.get((x, w))
            if col:
                add_into(acc, col, c)
        return acc

    def apply_delta(vec: Dict[str, Fraction]) -> Dict[str, Fraction]:
        acc: Dict[str, Fraction] = {}
        for n, c in vec.items():
            col = delta_entries.get(n)
            if col:
                add_into(acc, col, c)
        return acc

    parity = {n: space.bidegree[n].total % 2 for n in names}
    bracket_memo: Dict[Tuple[str, str], Dict[str, Fraction]] = {}

    def bracket_basis(x: str, y: str) -> Dict[str, Fraction]:
        key = (x, y)
        if key not in bracket_memo:
            acc = apply_delta(product.get(key, zero))
            dx = delta_entries.get(x)
            if dx:
                for s, c in dx.items():
                    col = product.get((s, y))
                    if col:
                        add_into(acc, col, -c)
            dy = delta_entries.get(y)
            if dy:
                sign = Fraction(-1) if parity[x] == 0 else Fraction(1)
                for s, c in dy.items():
                    col = product.get((x, s))
                    if col:
                        add_into(acc, col, sign * c)
            bracket_memo[key] = {n: v for n, v in acc.items() if v != 0}
        return bracket_memo[key]

    def bracket_with_vec(x: str, vec: Dict[str, Fraction]) -> Dict[str, Fraction]:
        acc: Dict[str, Fraction] = {}
        for w, c in vec.items():
            add_into(acc, bracket_basis(x, w), c)
        return acc

    for triple in candidates:
        for (x, y, z) in dict.fromkeys(itertools.permutations(triple)):
            yz = product.get((y, z), zero)
            lhs = bracket_with_vec(x, yz) if yz else {}
            rhs = mul_vec_basis(bracket_basis(x, y), z)
            sign = koszul_sign(parity[x] + 1, parity[y])
            add_into(rhs, mul_basis_vec(y, bracket_basis(x, z)), sign)
            diff = dict(lhs)
            add_into(diff, rhs, Fraction(-1))
            if any(v != 0 for v in diff.values()):
                return False, (x, y, z)
    return True, None

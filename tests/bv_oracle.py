"""Reference BV-axiom checkers for the oracle tests in ``test_bv.py``.

``associativity``, ``derivation`` and ``order_two`` are the candidate-set
checkers that ``bvhy.bv`` used before it visited tuples from one support
index: each builds its own candidate pairs or sorted triples over whole
basis columns and stops at the first failure.  They return the same
``(passed, witness)`` pairs as the library's ``_check_*`` functions, so
witnesses can be compared too.  ``unpruned`` checks the three identities
on every basis tuple with ``Element`` arithmetic and the three-term bracket
formula, and returns the three verdicts.  ``bracket_model`` is a small
algebra whose derived bracket is nonzero on an exact product.
"""

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from bvhy.bv import BVAlgebra
from bvhy.graded import Bidegree, BigradedSpace, GradedMap, koszul_sign


def associativity(a):
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


def _triple_candidates(a):
    """Ordered pairs (x,y) with xy != 0, each yielded once; triples where
    no pairwise product is nonzero satisfy any trilinear identity trivially."""
    seen = set()
    for (x, y) in a.product:
        for pair in ((x, y), (y, x)):
            if pair not in seen:
                seen.add(pair)
                yield pair


def derivation(a):
    space = a.space
    pairs = dict.fromkeys(a.product)
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


def order_two(a):
    space = a.space
    names = space.names
    product = a.product
    delta_entries = a.delta.entries
    delta_support = {n: list(delta_entries.get(n, {})) for n in names}
    first_index: Dict[str, List[str]] = {}
    for (u, v) in product:
        first_index.setdefault(u, []).append(v)

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

    def add_into(acc, vec, c):
        for n, v in vec.items():
            acc[n] = acc.get(n, Fraction(0)) + c * v

    def mul_vec_basis(vec, z):
        acc: Dict[str, Fraction] = {}
        for w, c in vec.items():
            col = product.get((w, z))
            if col:
                add_into(acc, col, c)
        return acc

    def mul_basis_vec(x, vec):
        acc: Dict[str, Fraction] = {}
        for w, c in vec.items():
            col = product.get((x, w))
            if col:
                add_into(acc, col, c)
        return acc

    def apply_delta(vec):
        acc: Dict[str, Fraction] = {}
        for n, c in vec.items():
            col = delta_entries.get(n)
            if col:
                add_into(acc, col, c)
        return acc

    parity = {n: space.bidegree[n].total % 2 for n in names}
    bracket_memo: Dict[Tuple[str, str], Dict[str, Fraction]] = {}

    def bracket_basis(x, y):
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

    def bracket_with_vec(x, vec):
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


def unpruned(a):
    """(associativity, derivation, order two) verdicts over every tuple."""
    e = {n: a.space.basis_element(n) for n in a.space.names}
    mul = a.multiply

    def bracket(x, y):
        t3 = mul(x, a.delta(y)).scale(koszul_sign(1, x.total_degree))
        return a.delta(mul(x, y)) - mul(a.delta(x), y) - t3

    triples = list(itertools.product(e.values(), repeat=3))
    assoc = all(mul(mul(x, y), z) == mul(x, mul(y, z)) for x, y, z in triples)
    deriv = all(
        a.d(mul(x, y)) == mul(a.d(x), y)
        + mul(x, a.d(y)).scale(koszul_sign(1, x.total_degree))
        for x, y in itertools.product(e.values(), repeat=2))
    order_two = all(
        bracket(x, mul(y, z)) == mul(bracket(x, y), z)
        + mul(y, bracket(x, z)).scale(
            koszul_sign(x.total_degree + 1, y.total_degree))
        for x, y, z in triples)
    return assoc, deriv, order_two


def bracket_model(z=(2, 0)):
    """Nine elements with x y = d r exact, delta r = s and s z = w harmonic,
    w at z + (1, 1): with z at (2, 0), the strict (3,1) operation is -2[w]
    on x, y, z."""
    F = Fraction
    space = BigradedSpace([
        ("e", Bidegree(0, 0)), ("x", Bidegree(1, 1)), ("y", Bidegree(1, 1)),
        ("p", Bidegree(2, 2)), ("r", Bidegree(2, 1)), ("s", Bidegree(1, 1)),
        ("q", Bidegree(1, 2)), ("z", Bidegree(*z)),
        ("w", Bidegree(z[0] + 1, z[1] + 1))])
    d = GradedMap(space, space, Bidegree(0, 1),
                  {"r": {"p": F(1)}, "s": {"q": F(-1)}})
    delta = GradedMap(space, space, Bidegree(-1, 0),
                      {"r": {"s": F(1)}, "p": {"q": F(1)}})
    product = {("e", n): {n: F(1)} for n in space.names}
    product[("x", "y")] = {"p": F(1)}
    product[("s", "z")] = {"w": F(1)}
    return BVAlgebra(space, d, delta, product, "e")

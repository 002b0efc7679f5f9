"""Reference BV-axiom checkers for the oracle tests in ``test_bv.py``.

``associativity``, ``derivation`` and ``order_two`` follow the witness rule
that ``check_bv_axioms`` documents, with ``Element`` arithmetic: each
visits its tuples in basis-index order, keeps one tuple per symmetry orbit
when its own graded-commutativity check passes, and returns ``(passed,
witness)``, the first failing tuple or None.  They find the tuples where an
identity can fail from the products and brackets of basis pairs, computed
here, and skip the others, which satisfy it as 0 = 0.  ``unpruned`` checks
the three identities on every basis tuple and returns the three verdicts.
``bracket_model`` is a small algebra whose derived bracket is nonzero on an
exact product, and ``cy3_model`` extends it to a hypersurface footprint of
dimension 3.  ``ce_model(n)`` is a Chevalley-Eilenberg algebra with nonzero
higher operations up to arity n.
"""

import itertools
from fractions import Fraction
from functools import partial

from views import fraction_tables

from bvhy.bv import BVAlgebra
from bvhy.graded import Bidegree, BigradedSpace
from bvhy.rational import GradedMap, apply, koszul_sign, multiply


def _bracket(a, x, y):
    """The three-term bracket of elements ``x`` and ``y``."""
    mul = partial(multiply, a)
    return apply(a.delta, mul(x, y)) - mul(apply(a.delta, x), y) \
        - mul(x, apply(a.delta, y)).scale(koszul_sign(1, x.total_degree))


def _products(a):
    """Basis elements, the products of all basis pairs, and whether they
    are graded commutative (which makes odd squares vanish)."""
    e = {n: a.space.basis_element(n) for n in a.space.names}
    prod = {(x, y): multiply(a, e[x], e[y]) for x in e for y in e}
    commutative = all(
        v == prod[y, x].scale(koszul_sign(e[x].total_degree,
                                          e[y].total_degree))
        for (x, y), v in prod.items())
    return e, prod, commutative


def _neighbours(table):
    """``right[x]``: the ``z`` with ``table[x, z] != 0``; ``left[z]``: the
    ``x``, both in basis order when ``table`` is."""
    right, left = {}, {}
    for (x, z), v in table.items():
        if not v.is_zero:
            right.setdefault(x, []).append(z)
            left.setdefault(z, []).append(x)
    return right, left


def _index_order(index, tuples):
    return sorted(tuples, key=lambda t: [index[n] for n in t])


def associativity(a):
    names, index = a.space.names, a.space.index
    e, prod, commutative = _products(a)
    unit_law = all(prod[a.unit, n] == e[n] for n in names)
    skip = a.unit if commutative and unit_law else None
    right, left = _neighbours(prod)
    for y in names:
        # (xy)z needs z next to a term of xy, x(yz) needs x next to one of yz
        pairs = {(x, z) for x in left.get(y, ()) for w in prod[x, y].coeffs
                 for z in right.get(w, ())}
        pairs |= {(x, z) for z in right.get(y, ()) for w in prod[y, z].coeffs
                  for x in left.get(w, ())}
        for x, z in _index_order(index, pairs):
            if skip in (x, y, z) or (
                    commutative and index[z] < max(index[x], index[y])):
                continue
            if multiply(a, prod[x, y], e[z]) != multiply(a, e[x], prod[y, z]):
                return False, (x, y, z)
    return True, None


def derivation(a):
    names = a.space.names
    e, prod, commutative = _products(a)
    de = {n: apply(a.d, e[n]) for n in names}
    for i, x in enumerate(names):
        for y in names[i:] if commutative else names:
            if prod[x, y].is_zero and de[x].is_zero and de[y].is_zero:
                continue
            rhs = multiply(a, de[x], e[y]) + multiply(a, e[x], de[y]).scale(
                koszul_sign(1, e[x].total_degree))
            if apply(a.d, prod[x, y]) != rhs:
                return False, (x, y)
    return True, None


def order_two(a):
    names, index = a.space.names, a.space.index
    e, prod, commutative = _products(a)
    de = {n: apply(a.delta, e[n]) for n in names}
    br = {(x, y): _bracket(a, e[x], e[y]) for (x, y), v in prod.items()
          if not (v.is_zero and de[x].is_zero and de[y].is_zero)}
    right, left = _neighbours(prod)
    _, bracketed = _neighbours(br)
    # [x, yz] needs a term of yz bracketed with x; [x, y] z and y [x, z]
    # need a term of a nonzero bracket next to z or y
    triples = {(x, y, z) for (y, z), v in prod.items() for w in v.coeffs
               for x in bracketed.get(w, ())}
    for (x, y), v in br.items():
        for u in v.coeffs:
            triples.update((x, y, z) for z in right.get(u, ()))
            triples.update((x, z, y) for z in left.get(u, ()))
    zero = a.space.zero()
    for x, y, z in _index_order(index, triples):
        if commutative and index[y] > index[z]:
            continue
        rhs = multiply(a, br.get((x, y), zero), e[z]) + multiply(
            a, e[y], br.get((x, z), zero)).scale(
                koszul_sign(e[x].total_degree + 1, e[y].total_degree))
        if _bracket(a, e[x], prod[y, z]) != rhs:
            return False, (x, y, z)
    return True, None


def unpruned(a):
    """(associativity, derivation, order two) verdicts over every tuple."""
    e = {n: a.space.basis_element(n) for n in a.space.names}
    mul = partial(multiply, a)
    triples = list(itertools.product(e.values(), repeat=3))
    assoc = all(mul(mul(x, y), z) == mul(x, mul(y, z)) for x, y, z in triples)
    deriv = all(
        apply(a.d, mul(x, y)) == mul(apply(a.d, x), y)
        + mul(x, apply(a.d, y)).scale(koszul_sign(1, x.total_degree))
        for x, y in itertools.product(e.values(), repeat=2))
    order_two = all(
        _bracket(a, x, mul(y, z)) == mul(_bracket(a, x, y), z)
        + mul(y, _bracket(a, x, z)).scale(
            koszul_sign(x.total_degree + 1, y.total_degree))
        for x, y, z in triples)
    return assoc, deriv, order_two


def fraction_algebra(space, d, delta, product, unit):
    """The ``BVAlgebra`` of the ``GradedMap``s ``d`` and ``delta`` and a
    ``{(x, y): {t: Fraction}}`` product, keyed by basis names."""
    return BVAlgebra(space, *fraction_tables(space, d, delta, product), unit)


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
    return fraction_algebra(space, d, delta, product, "e")


def cy3_model():
    """``bracket_model((1, 1))`` and an isolated harmonic t at (3, 3) with
    its unit row: ten elements whose cohomology has the hypersurface
    footprint of dimension 3, with (H^{1,1})^3 -> H^{2,2} as its strict
    (3,1) operation."""
    b = bracket_model((1, 1))
    space = BigradedSpace([(n, b.space.bidegree[n]) for n in b.space.names]
                          + [("t", Bidegree(3, 3))])
    d, delta = (GradedMap(space, space, m.shift, m.entries)
                for m in (b.d, b.delta))
    product = dict(b.product)
    product[("e", "t")] = {"t": Fraction(1)}
    return fraction_algebra(space, d, delta, product, "e")


def _sorted_word(word):
    """Sign and sorted form of a word in odd generators; None on a repeat."""
    if len(set(word)) < len(word):
        return None
    inversions = sum(x > y for i, x in enumerate(word) for y in word[i + 1:])
    return (-1) ** inversions, tuple(sorted(word))


def ce_model(n):
    """Chevalley-Eilenberg algebra with generators g_1..g_n at (0,1) and
    d g_k = c_k g_1 g_{k-1} for k >= 3, c_k = (2k - 1)/(k - 1) (Heisenberg
    for n = 3, filiform L_n above); d^2 = 0 for any c_k because
    g_1 g_1 = 0."""
    gens = range(1, n + 1)
    subsets = [s for r in range(n + 1)
               for s in itertools.combinations(gens, r)]

    def name(s):
        return "g" + "".join(map(str, s))

    space = BigradedSpace([(name(s), Bidegree(0, len(s))) for s in subsets])
    product = {}
    for s in subsets:
        for t in subsets:
            merged = _sorted_word(s + t)
            if merged:
                product[(name(s), name(t))] = {
                    name(merged[1]): Fraction(merged[0])}
    d = {}
    for s in subsets:
        col = {}
        for j, k in enumerate(s):
            if k < 3:
                continue
            merged = _sorted_word(s[:j] + (1, k - 1) + s[j + 1:])
            if merged:
                sign, word = merged
                col[name(word)] = col.get(name(word), 0) + \
                    (-1) ** j * sign * Fraction(2 * k - 1, k - 1)
        d[name(s)] = col
    return fraction_algebra(space, GradedMap(space, space, Bidegree(0, 1), d),
                            GradedMap(space, space, Bidegree(-1, 0)),
                            product, "g")

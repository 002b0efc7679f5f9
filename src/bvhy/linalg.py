"""Dense exact linear algebra on small integer blocks.

A ``Block`` is a matrix held as integer rows over one positive common
denominator, so that products, sums and eliminations work in Python ints
and a chain of them builds no ``Fraction``; ``GradedMap.from_blocks``
makes the exact rational entries of a map from its blocks.  One
fraction-free Gauss-Jordan elimination serves ``rref``, ``kernel`` and
``solve``.  Everything here is exact; there are no tolerances anywhere in
the package.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import List, Tuple

Matrix = List[List[Fraction]]
# integer rows over one positive denominator
Block = Tuple[List[List[int]], int]

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def scalar(n: int, c: int) -> Block:
    """``c`` times the n x n identity."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = c
    return rows, 1


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def to_block(a: Matrix) -> Block:
    """``a`` as integer numerators over the lcm of its denominators."""
    den = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in a], den


def _reduced(rows: List[List[int]], den: int) -> Block:
    g = gcd(den, *[gcd(*row) for row in rows])
    if g > 1:
        return [[x // g for x in row] if any(row) else row
                for row in rows], den // g
    return rows, den


def mul(a: Block, b: Block) -> Block:
    (arows, aden), (brows, bden) = a, b
    if arows and len(arows[0]) != len(brows):
        raise ValueError("matrix dimension mismatch in product")
    cols = len(brows[0]) if brows else 0
    # each row of b as its nonzero (column, numerator) pairs
    bnz = [[(j, row[j]) for j in compress(range(cols), row)] for row in brows]
    out = []
    for row in arows:
        acc = [0] * cols
        for x, bk in compress(zip(row, bnz), row):
            for j, y in bk:
                acc[j] += x * y
        out.append(acc)
    return _reduced(out, aden * bden)


def add(terms: List[Block]) -> Block:
    """The sum of one or more blocks of one shape."""
    den = lcm(*[d for _rows, d in terms])
    out = [[0] * len(row) for row in terms[0][0]]
    for rows, d in terms:
        s = den // d
        for acc, row in zip(out, rows):
            for j in compress(range(len(row)), row):
                acc[j] += s * row[j]
    return _reduced(out, den)


def _eliminate(m: List[List[int]], ncols: int) -> List[int]:
    """Gauss-Jordan elimination of the integer rows ``m`` in place, with
    pivots searched in the first ``ncols`` columns.  Row scaling keeps the
    row space, so each row is kept divided by its content gcd.  On return
    the pivot rows lead ``m`` and are zero in every other pivot column.
    Returns the pivot columns."""
    rows = len(m)
    for i, row in enumerate(m):
        g = gcd(*row)
        if g > 1:
            m[i] = [x // g for x in row]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pr = m[r]
        pv = pr[c]
        support = [(j, y) for j, y in enumerate(pr) if y]
        for i in range(rows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(pv, f)
            s, f = pv // g, f // g
            row = [s * x for x in m[i]] if s != 1 else m[i]
            for j, y in support:
                row[j] -= f * y
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rref(rows: List[List[int]], ncols: int) -> Tuple[List[List[int]], List[int]]:
    """The nonzero rows of the reduced row echelon form of ``rows`` (left
    as they are), each over its content gcd, and their pivot columns."""
    m = [list(row) for row in rows]
    pivots = _eliminate(m, ncols)
    return m[:len(pivots)], pivots


def kernel(rows: List[List[int]], ncols: int) -> Block:
    """A basis of {v : rows v = 0}, as the rows of a block: one vector per
    free column of the reduced rows, 1 there and 0 in the other free
    columns, so rows with one row space give the one basis."""
    reduced, pivots = rref(rows, ncols)
    den = lcm(*[row[c] for row, c in zip(reduced, pivots)])
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = den
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] * (den // row[pc])
        basis.append(v)
    return _reduced(basis, den)


def solve(a: Block, b: Block) -> Block:
    """a^-1 b for the square block ``a``, read off the reduced rows of
    ``[a | b]``: a pivot row is [p e_i | w], so row i of a^-1 b is w / p."""
    (arows, aden), (brows, bden) = a, b
    n = len(arows)
    aug = [ra + rb for ra, rb in zip(arows, brows)]
    if len(_eliminate(aug, n)) < n:
        raise ValueError("matrix is singular")
    xden = lcm(*[row[i] for i, row in enumerate(aug)])
    return _reduced([[aden * (xden // row[i]) * y for y in row[n:]]
                     for i, row in enumerate(aug)], xden * bden)


def is_symmetric(a) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def is_positive_definite(a: Block) -> bool:
    """Exact test by Sylvester's criterion: symmetric, and every pivot of
    an elimination without row exchanges positive.  The elimination is
    fraction-free on the integer rows; each step scales a row by a
    positive factor only, which keeps the signs of the pivots."""
    m = list(a[0])
    if not is_symmetric(m):
        return False
    n = len(m)
    for k in range(n):
        rk = m[k]
        pv = rk[k]
        if pv <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k]
            if not f:
                continue
            g = gcd(pv, f)
            s, f = pv // g, f // g
            row = [s * x - f * y for x, y in zip(m[i], rk)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
    return True

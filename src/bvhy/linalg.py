"""Dense exact-rational linear algebra on small matrices.

Matrices are lists of rows, entries are ``fractions.Fraction``.  The
products and eliminations scale each row to integers over the lcm of its
denominators, work in Python ints, and build one exact ``Fraction`` per
output entry at the end.  One Gauss-Jordan elimination serves both
``kernel_basis``, which reads the kernel off its pivot rows, and
``inverse``.  Everything here is exact; there are no tolerances anywhere
in the package.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import List, Tuple

Matrix = List[List[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def _int_row(row) -> Tuple[List[int], int]:
    """``row`` as integer numerators over the lcm of its denominators."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in product")
    cols = len(b[0]) if b else 0
    # b over one common denominator, each row as its nonzero (column, numerator)
    bden = lcm(*[x.denominator for row in b for x in row])
    bnz = [[(j, x.numerator * (bden // x.denominator))
            for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        nums, aden = _int_row(row)
        acc = [0] * cols
        for x, bk in zip(nums, bnz):
            if x:
                for j, y in bk:
                    acc[j] += x * y
        den = aden * bden
        out.append([Fraction(v, den) if v else ZERO for v in acc])
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


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


def kernel_basis(a: Matrix) -> List[List[Fraction]]:
    """Basis of the right kernel {v : a v = 0}, as a list of column vectors:
    one per free column of the reduced rows, read off the pivot rows."""
    if not a:
        return []
    m = [_int_row(row)[0] for row in a]
    cols = len(m[0])
    pivots = _eliminate(m, cols)
    pivot_set = set(pivots)
    basis = []
    free = [c for c in range(cols) if c not in pivot_set]
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    # [A | I] with row i scaled by its lcm d_i is [D A | D]; its rref is
    # still [I | A^-1]
    aug = []
    for i, row in enumerate(a):
        nums, den = _int_row(row)
        unit = [0] * n
        unit[i] = den
        aug.append(nums + unit)
    pivots = _eliminate(aug, n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[r]) if x else ZERO for x in row[n:]]
            for r, row in enumerate(aug)]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def is_positive_definite(a: Matrix) -> bool:
    """Exact test via LDL pivots: symmetric and all pivots positive."""
    if not is_symmetric(a):
        return False
    n = len(a)
    m = [row[:] for row in a]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True

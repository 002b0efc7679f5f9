"""Exact linear algebra: every identity is checked with == on Fractions."""

import random
from fractions import Fraction

import pytest

import hodge_oracle
from hodge_oracle import rank, to_matrix
from bvhy import linalg
from bvhy.elements import to_block

F = Fraction


def _random_matrix(rng, rows, cols, pool=(-2, -1, 0, 0, 1, 2, F(1, 2))):
    return [[F(rng.choice(pool)) for _ in range(cols)] for _ in range(rows)]


def _mul(a, b):
    return to_matrix(linalg.mul(to_block(a), to_block(b)))


def _pd(a):
    return linalg.is_positive_definite(to_block(a))


def test_rref_known_matrix():
    # reduces to [[1, 2], [0, 0]]: pivot column 0, free column 1
    rows = [[2, 4], [1, 2]]
    assert linalg.rref(rows, 2) == ([[1, 2]], [0])
    assert rows == [[2, 4], [1, 2]]
    assert linalg.kernel(rows, 2) == (([[-2, 1]], 1), [1])
    # a reduced row keeps a pivot other than 1 when its content gcd is 1
    assert linalg.rref([[2, 0, 1], [0, 3, 1]], 3) == \
        ([[2, 0, 1], [0, 3, 1]], [0, 1])
    # no rows: every column is free
    assert linalg.kernel([], 2) == (([[1, 0], [0, 1]], 1), [0, 1])
    # one vector per free column, 1 there, over the lcm of the pivots
    kern, free = linalg.kernel([[2, 0, 1], [0, 3, 1]], 3)
    assert to_matrix(kern) == [[F(-1, 2), F(-1, 3), F(1)]] and free == [2]


def test_rank_of_constructed_low_rank_products():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randint(0, 3)
        a = _random_matrix(rng, 5, r, pool=(1, 2, -1))
        b = _random_matrix(rng, r, 4, pool=(1, -2, 3))
        prod = _mul(a, b) if r else hodge_oracle.zeros(5, 4)
        assert rank(prod) <= r
    # a full-rank square example has full rank exactly
    assert rank([[F(1), F(1)], [F(0), F(3)]]) == 2


def test_kernel_basis_annihilates_and_has_right_dimension():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        cols = len(m[0])
        kern = to_matrix(linalg.kernel(to_block(m)[0], cols)[0])
        assert len(kern) == cols - rank(m)
        for v in kern:
            image = [sum(row[j] * v[j] for j in range(cols)) for row in m]
            assert all(x == 0 for x in image)


def test_inverse_round_trip_and_singular_error():
    rng = random.Random(13)
    found = 0
    while found < 10:
        m = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, rng.randint(1, 4))
        try:
            inv = to_matrix(linalg.solve(to_block(m),
                                         linalg.scalar(3, 1)))
        except ValueError:
            continue
        found += 1
        assert _mul(m, inv) == hodge_oracle.identity(3)
        assert _mul(inv, m) == hodge_oracle.identity(3)
        # m^-1 b, with b over a denominator of its own
        x = to_matrix(linalg.solve(to_block(m), to_block(b)))
        assert _mul(m, x) == b
    with pytest.raises(ValueError):
        linalg.solve(to_block([[F(1), F(2)], [F(2), F(4)]]),
                     linalg.scalar(2, 1))


def test_transpose_and_symmetry():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.transpose(m) == [[F(1), F(3)], [F(2), F(4)]]
    assert linalg.transpose(linalg.transpose(m)) == m
    assert not linalg.is_symmetric(m)
    assert linalg.is_symmetric([[F(1), F(2)], [F(2), F(5)]])


def test_positive_definiteness_exact():
    assert _pd([[F(2), F(1)], [F(1), F(1)]])
    assert _pd([[F(3), F(1)], [F(1), F(2)]])
    # symmetric but indefinite
    assert not _pd([[F(1), F(2)], [F(2), F(1)]])
    # positive semi-definite only
    assert not _pd([[F(1), F(1)], [F(1), F(1)]])
    # not symmetric
    assert not _pd([[F(1), F(2)], [F(0), F(1)]])
    # the integer test agrees with the Fraction LDL reference on random
    # symmetric forms near the boundary: B^T B plus a small diagonal shift
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(1, 6)
        b = _random_matrix(rng, rng.randint(1, n + 1), n)
        shift = F(rng.choice((-1, 0, 1, 1)), rng.choice((1, 3)))
        g = [[x + (shift if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(_mul(linalg.transpose(b), b))]
        expected = hodge_oracle.is_positive_definite(g)
        assert _pd(g) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 40, seen


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.mul(to_block([[F(1), F(2)]]),
                   to_block([[F(1), F(2)]]))

"""Exact linear algebra: every identity is checked with == on Fractions."""

import random
from fractions import Fraction

import pytest

from hodge_oracle import rank
from bvhy import linalg

F = Fraction


def _random_matrix(rng, rows, cols, pool=(-2, -1, 0, 0, 1, 2, F(1, 2))):
    return [[F(rng.choice(pool)) for _ in range(cols)] for _ in range(rows)]


def test_rref_known_matrix():
    # reduces to [[1, 2], [0, 0]]: pivot column 0, free column 1
    m = [[F(2), F(4)], [F(1), F(2)]]
    assert linalg.kernel_basis(m) == [[F(-2), F(1)]]


def test_rank_of_constructed_low_rank_products():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randint(0, 3)
        a = _random_matrix(rng, 5, r, pool=(1, 2, -1))
        b = _random_matrix(rng, r, 4, pool=(1, -2, 3))
        prod = linalg.mat_mul(a, b) if r else linalg.zeros(5, 4)
        assert rank(prod) <= r
    # a full-rank square example has full rank exactly
    assert rank([[F(1), F(1)], [F(0), F(3)]]) == 2


def test_kernel_basis_annihilates_and_has_right_dimension():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        kern = linalg.kernel_basis(m)
        cols = len(m[0])
        assert len(kern) == cols - rank(m)
        for v in kern:
            image = [sum(row[j] * v[j] for j in range(cols)) for row in m]
            assert all(x == 0 for x in image)


def test_inverse_round_trip_and_singular_error():
    rng = random.Random(13)
    found = 0
    while found < 10:
        m = _random_matrix(rng, 3, 3)
        try:
            inv = linalg.inverse(m)
        except ValueError:
            continue
        found += 1
        assert linalg.mat_mul(m, inv) == linalg.identity(3)
        assert linalg.mat_mul(inv, m) == linalg.identity(3)
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_transpose_and_symmetry():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.transpose(m) == [[F(1), F(3)], [F(2), F(4)]]
    assert linalg.transpose(linalg.transpose(m)) == m
    assert not linalg.is_symmetric(m)
    assert linalg.is_symmetric([[F(1), F(2)], [F(2), F(5)]])


def test_positive_definiteness_exact():
    assert linalg.is_positive_definite([[F(2), F(1)], [F(1), F(1)]])
    assert linalg.is_positive_definite([[F(3), F(1)], [F(1), F(2)]])
    # symmetric but indefinite
    assert not linalg.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
    # positive semi-definite only
    assert not linalg.is_positive_definite([[F(1), F(1)], [F(1), F(1)]])
    # not symmetric
    assert not linalg.is_positive_definite([[F(1), F(2)], [F(0), F(1)]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.mat_mul([[F(1), F(2)]], [[F(1), F(2)]])

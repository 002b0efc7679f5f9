"""Bigraded spaces, Koszul signs, and degree-shifting maps."""

import random
from fractions import Fraction

import pytest

from bv_oracle import fraction_algebra
from hodge_oracle import dense_block, mat_mul, to_blocks
from views import nonzero_entries, set_entry
from bvhy.bv import check_bv_axioms
from bvhy.graded import Bidegree, BigradedSpace, compose
from bvhy.rational import Element, GradedMap, from_blocks, koszul_sign

F = Fraction


def test_bidegree_arithmetic():
    assert Bidegree(1, 2) + Bidegree(-1, 0) == Bidegree(0, 2)
    assert -Bidegree(1, 2) == Bidegree(-1, -2)
    assert Bidegree(2, 3).total == 5


def test_koszul_sign_parity():
    assert koszul_sign(0, 5) == 1
    assert koszul_sign(1, 2) == 1
    assert koszul_sign(1, 1) == -1
    assert koszul_sign(3, 5) == -1
    assert koszul_sign(2, 7) == 1


@pytest.fixture
def space():
    return BigradedSpace([
        ("e", Bidegree(0, 0)),
        ("a", Bidegree(1, 0)), ("b", Bidegree(1, 0)),
        ("c", Bidegree(0, 1)),
        ("ab", Bidegree(2, 0)),
    ])


def test_space_lookups(space):
    assert space.dim == 5
    assert space.names_at(Bidegree(1, 0)) == ["a", "b"]
    assert space.names_at(Bidegree(5, 5)) == []
    assert space.occupied_bidegrees() == [
        Bidegree(0, 0), Bidegree(0, 1), Bidegree(1, 0), Bidegree(2, 0)]
    assert "a" in space and "z" not in space
    with pytest.raises(ValueError):
        BigradedSpace([("x", Bidegree(0, 0)), ("x", Bidegree(1, 0))])


def test_element_homogeneity_and_arithmetic(space):
    x = space.basis_element("a") + space.basis_element("b").scale(F(2))
    assert x.coeffs == {"a": F(1), "b": F(2)}
    assert (x - x).is_zero
    with pytest.raises(ValueError):
        Element(space, Bidegree(1, 0), {"c": F(1)})
    with pytest.raises(ValueError):
        x + space.basis_element("c")
    # zero absorbs into either side regardless of bidegree
    assert space.zero() + x == x
    assert x + space.zero(Bidegree(9, 9)) == x


def test_graded_map_shift_validation(space):
    # an entry off its map's shift fails the shift item of the axiom check,
    # which names it; set to 0, the entry is gone
    f = GradedMap(space, space, Bidegree(0, 1))
    set_entry(f, "a", "ab", F(1))
    zero = GradedMap(space, space, Bidegree(-1, 0))
    product = {("e", n): {n: F(1)} for n in space.names}
    item = check_bv_axioms(
        fraction_algebra(space, f, zero, product, "e")).items[0]
    assert (item.name, item.passed, item.witness) == \
        ("d has shift (0,1)", False, [("a", "ab")])
    set_entry(f, "a", "ab", F(0))
    assert check_bv_axioms(
        fraction_algebra(space, f, zero, product, "e")).passed
    assert not nonzero_entries(f)


def test_compose_matches_block_matrix_oracle():
    rng = random.Random(5)
    basis = [(f"x{i}", Bidegree(0, i)) for i in range(4)]
    space = BigradedSpace(basis)
    for trial in range(10):
        f = GradedMap(space, space, Bidegree(0, 1))
        g = GradedMap(space, space, Bidegree(0, 1))
        for m in (f, g):
            for i in range(3):
                set_entry(m, f"x{i}", f"x{i+1}", F(rng.randint(-2, 2)))
        if trial == 0:
            # g has no block at the middle bidegree (0, 1) of g after f
            set_entry(g, "x1", "x2", F(0))
        comp = from_blocks(compose(to_blocks(g), to_blocks(f)))
        assert comp.shift == Bidegree(0, 2)
        # oracle: multiply the dense blocks directly
        for i in range(2):
            deg = Bidegree(0, i)
            fb, _, _ = dense_block(f, deg)
            gb, _, _ = dense_block(g, deg + Bidegree(0, 1))
            cb, _, _ = dense_block(comp, deg)
            assert cb == mat_mul(gb, fb)


def test_graded_map_add_scale_entries(space):
    f = GradedMap(space, space, Bidegree(0, 0))
    set_entry(f, "a", "b", F(2))
    assert nonzero_entries(f) == [("a", "b", F(2))]

"""Hodge transfer data: adjointness of the reference d*, harmonic
dimensions, exact identities."""

from fractions import Fraction

import pytest

from bv_oracle import fraction_algebra
from hodge_oracle import (adjoint_differential, compose, dense_block,
                          identity, mat_mul, rank, to_matrix)
from views import nonzero_entries, to_block
from bvhy import bv
from bvhy.graded import Bidegree, BigradedSpace
from bvhy.engine import build_operation_table
from bvhy.hodge import (InnerProduct, build_transfer_data,
                        check_side_conditions,
                        check_strong_trivialization_composites,
                        check_transfer_input)
from bvhy.models import (build_skew_gram_model, build_torus_model,
                         build_trivial_model)
from bvhy.rational import apply
from bvhy.serialize import gram_from_entries

F = Fraction


def _pairing(ip, space, x, y):
    """<x, y> for homogeneous elements via the block Gram matrices."""
    if x.is_zero or y.is_zero or x.bidegree != y.bidegree:
        return F(0)
    names = space.names_at(x.bidegree)
    g = to_matrix(ip.block(x.bidegree))
    return sum(x.coeffs.get(names[i], F(0)) * g[i][j] * y.coeffs.get(names[j], F(0))
               for i in range(len(names)) for j in range(len(names)))


def test_zero_differential_gives_trivial_transfer():
    m = build_trivial_model(2)
    a = m.algebra
    assert not nonzero_entries(adjoint_differential(a, InnerProduct(a.space)))
    td = m.transfer_data()
    assert not nonzero_entries(td.green)
    for deg in a.space.occupied_bidegrees():
        assert len(td.cohomology.names_at(deg)) == len(a.space.names_at(deg))
    assert not nonzero_entries(td.h)
    assert td.cohomology.dim == a.space.dim
    # iota and pi are the identity up to the bracketed harmonic names
    for n in td.cohomology.names:
        col = td.iota.entries[n]
        assert list(col.values()) == [F(1)] and n == f"[{list(col)[0]}]"


@pytest.mark.parametrize("model_builder,label", [
    (lambda: build_torus_model(1, 1), "torus"),
    (build_skew_gram_model, "skew-gram"),
])
def test_adjointness_identity_over_all_basis_pairs(model_builder, label):
    m = model_builder()
    a = m.algebra
    ip = m.inner_product or InnerProduct(a.space)
    dstar = adjoint_differential(a, ip)
    space = a.space
    for x in space.names:
        for y in space.names:
            ex, ey = space.basis_element(x), space.basis_element(y)
            assert _pairing(ip, space, apply(a.d, ex), ey) == \
                _pairing(ip, space, ex, apply(dstar, ey))


def test_identity_gram_adjoint_is_entrywise_transpose():
    a = build_torus_model(1, 1).algebra
    dstar = adjoint_differential(a, InnerProduct(a.space))
    assert sorted((t, s, v) for s, t, v in nonzero_entries(a.d)) == \
        sorted(nonzero_entries(dstar))


def test_harmonic_dimensions_match_rank_oracle():
    m = build_torus_model(1, 1)
    a = m.algebra
    cohomology = build_transfer_data(a).cohomology
    for deg in a.space.occupied_bidegrees():
        dim = len(a.space.names_at(deg))
        out_block, _, _ = dense_block(a.d, deg)
        in_block, _, _ = dense_block(a.d, deg + Bidegree(0, -1))
        expected = dim - rank(out_block) - rank(in_block)
        assert len(cohomology.names_at(deg)) == expected


def test_green_commutes_with_d_and_vanishes_on_harmonics():
    m = build_torus_model(1, 1)
    a = m.algebra
    td = m.transfer_data()
    left = compose(a.d, td.green)
    assert nonzero_entries(left)
    assert left.entries == compose(td.green, a.d).entries
    assert not nonzero_entries(compose(td.green, td.iota))


def test_side_conditions_and_trivialization_on_models():
    for m in (build_trivial_model(1), build_torus_model(1, 1),
              build_skew_gram_model()):
        td = m.transfer_data()
        side = check_side_conditions(td, m.algebra)
        assert side.passed, (m.name, [i.to_dict() for i in side.failures()])
        triv = check_strong_trivialization_composites(td, m.algebra)
        assert triv.passed, (m.name, [i.to_dict() for i in triv.failures()])


def test_checks_compose_blocks_and_green_is_made_when_read():
    m = build_torus_model(1, 1)
    td, reports = check_transfer_input(m.algebra, m.inner_product)
    assert all(r.passed for r in reports)
    # validate's checks make no GradedMap view and no Green operator
    assert not {"iota", "pi", "h", "green"} & set(vars(td))
    # nor does the engine, which reads the integer tables
    build_operation_table(m.algebra, td, 3)
    assert "tables" in vars(td)
    assert not {"iota", "pi", "h", "green"} & set(vars(td))
    assert nonzero_entries(td.green) and "green" in vars(td)


def test_skew_gram_cohomology_is_the_unit_line():
    m = build_skew_gram_model()
    td = m.transfer_data()
    assert td.cohomology.names == ["[e]"]


def test_inner_product_validation():
    space = BigradedSpace([("a", Bidegree(0, 0)), ("b", Bidegree(0, 0))])
    with pytest.raises(ValueError):
        InnerProduct(space, {Bidegree(0, 0): to_block([[F(1), F(2)],
                                                       [F(2), F(1)]])})
    ip = gram_from_entries([["a", "b", "1/2"]], space)
    assert to_matrix(ip.block(Bidegree(0, 0))) == [[F(1), F(1, 2)],
                                                   [F(1, 2), F(1)]]
    with pytest.raises(ValueError, match="crosses bidegrees"):
        gram_from_entries([["a", "b", "1"]], BigradedSpace(
            [("a", Bidegree(0, 0)), ("b", Bidegree(1, 0))]))
    # the form is symmetric, so (b, a) repeats the entry (a, b)
    with pytest.raises(ValueError, match="repeats the entry"):
        gram_from_entries([["a", "b", "1/2"], ["b", "a", "1/3"]], space)


def test_pi_iota_identity_via_independent_block_computation():
    m = build_skew_gram_model()
    td = m.transfer_data()
    a = m.algebra
    ip = m.inner_product
    # oracle: per bidegree, solve pi from the normal equations directly
    for deg in td.cohomology.occupied_bidegrees():
        iota_block, hsrc, _ = dense_block(td.iota, deg)
        pi_block, _, htgt = dense_block(td.pi, deg)
        assert hsrc == htgt
        prod = mat_mul(pi_block, iota_block)
        assert prod == identity(len(hsrc))
        # iota columns must be linearly independent in the big space
        assert rank(iota_block) == len(hsrc)


def test_d_and_delta_become_blocks_once_per_algebra(monkeypatch):
    m = build_torus_model(1, 1)
    converted, blocks = [], bv._blocks
    monkeypatch.setattr(bv, "_blocks",
                        lambda space, t: converted.append(t) or blocks(space, t))
    a = m.algebra
    a = fraction_algebra(a.space, a.d, a.delta, a.product, a.unit)
    td, reports = check_transfer_input(a, m.inner_product)
    assert all(r.passed for r in reports)
    # the axiom check, the Hodge build and both side checks share them,
    # and none reads a Fraction view of the algebra
    assert converted == [a.tables.d, a.tables.delta]
    assert not {"d", "delta", "product", "brackets"} & set(vars(a))

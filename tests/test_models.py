"""Built-in models: structural expectations and the witness search."""

from fractions import Fraction

import pytest

from certify_oracle import builtin_footprints, model_footprint, torus_models
from engine_oracle import nonzero_keys, truncate_to_strict
from hodge_oracle import dense_block, rank
from bvhy import linalg, models, serialize
from bvhy.bv import check_bv_axioms
from bvhy.certify import is_hypersurface_footprint
from bvhy.elements import nonzero_entries
from bvhy.engine import build_operation_table
from bvhy.graded import Bidegree
from bvhy.hodge import check_transfer_input
from bvhy.models import (SearchExhausted, build_skew_gram_model,
                         build_torus_model, build_trivial_model,
                         builtin_models, search_nonformal)

F = Fraction


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_trivial_model(0)
    with pytest.raises(ValueError):
        build_torus_model(4, 1)
    with pytest.raises(ValueError):
        build_torus_model(1, 2)


def test_trivial_one_generator_is_two_dimensional():
    m = build_trivial_model(1)
    assert m.algebra.space.dim == 2
    table = build_operation_table(m.algebra, m.transfer_data(), 4)
    assert nonzero_keys(table) == [(2, 0)]


def test_torus_constant_mode_model_has_zero_differential():
    m = build_torus_model(1, 0)
    assert not nonzero_entries(m.algebra.d)
    assert not nonzero_entries(m.algebra.delta)
    assert not nonzero_entries(m.transfer_data().h)
    assert m.transfer_data().cohomology.dim == m.algebra.space.dim


def test_torus_cutoff_one_has_nonzero_differential_and_right_cohomology():
    m = build_torus_model(1, 1)
    a = m.algebra
    assert nonzero_entries(a.d) and nonzero_entries(a.delta)
    td = m.transfer_data()
    # oracle: cohomology dimension per bidegree from exact ranks of d
    for deg in a.space.occupied_bidegrees():
        out_block, _, _ = dense_block(a.d, deg)
        in_block, _, _ = dense_block(a.d, deg + Bidegree(0, -1))
        expected = len(a.space.names_at(deg)) \
            - rank(out_block) - rank(in_block)
        assert len(td.cohomology.names_at(deg)) == expected
    # only the constant-mode sector survives
    assert td.cohomology.dim == 4
    assert all(n.startswith("[m0|") for n in td.cohomology.names)


def test_builtin_model_expectations_reverified():
    for m in builtin_models():
        if m.name == "torus(2,1)":
            continue  # covered by the acceptance suite; axioms are slow
        td, reports = check_transfer_input(m.algebra, m.inner_product)
        assert td is not None and all(r.passed for r in reports), \
            (m.name, [i.to_dict() for r in reports for i in r.failures()])
        if m.n is not None:
            # of the torus models, only those with n = 1 are of hypersurface type
            assert is_hypersurface_footprint(model_footprint(m))[0] == (m.n == 1)


def test_torus_models_selector():
    names = [m.name for m in torus_models()]
    assert names == ["torus(1,0)", "torus(1,1)", "torus(2,1)"]


def test_skew_gram_model_uses_non_identity_gram():
    m = build_skew_gram_model()
    block = m.inner_product.block(Bidegree(1, 0))
    assert block != linalg.scalar(2, 1)
    assert check_bv_axioms(m.algebra).passed


def test_builtin_footprints_expectations():
    names = [nf.name for nf in builtin_footprints()]
    assert names == ["k3", "quintic", "hypersurface-4", "violating-4",
                     "hypersurface-5"]
    for nf in builtin_footprints():
        assert nf.footprint.dim_at(0, 0) == 1
        got, _ = is_hypersurface_footprint(nf.footprint)
        assert got == nf.expected_hypersurface


def test_search_nonformal_finds_confirmed_witness():
    m = search_nonformal(seed=0)
    assert m.witness["arity"] == 3 and m.witness["brackets"] == 0
    assert m.witness["output"]
    assert check_bv_axioms(m.algebra).passed
    # the witness model does not satisfy the certificate hypothesis,
    # so the Main-Theorem exclusions never applied to it
    H = m.transfer_data().cohomology
    occupied = {deg: len(H.names_at(deg)) for deg in H.occupied_bidegrees()}
    from bvhy.certify import Footprint
    ok, _ = is_hypersurface_footprint(Footprint(3, occupied))
    assert not ok


def test_search_witness_lost_by_strict_truncation():
    m = search_nonformal(seed=0)
    table = build_operation_table(m.algebra, m.transfer_data(), 3)
    assert table.ops[(3, 0)]            # the higher operation is nonzero
    strict = truncate_to_strict(table)
    assert (3, 0) not in strict.ops
    dropped = set(table.ops) - set(strict.ops)
    assert any(table.ops[kl] for kl in dropped)


def test_search_is_deterministic_per_seed():
    a = search_nonformal(seed=5)
    b = search_nonformal(seed=5)
    assert a.witness == b.witness
    da = serialize.dump(serialize.algebra_to_json(a.algebra))
    db = serialize.dump(serialize.algebra_to_json(b.algebra))
    assert da == db


def test_search_exhaustion_paths(monkeypatch):
    monkeypatch.setattr(models, "SEARCH_ATTEMPTS", 0)
    with pytest.raises(SearchExhausted, match="within 0 attempts"):
        search_nonformal(seed=0)

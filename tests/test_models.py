"""Built-in models: structural expectations and the witness search."""

from fractions import Fraction

import pytest

from certify_oracle import builtin_footprints, model_footprint, torus_models
from engine_oracle import nonzero_keys, truncate_to_strict
from hodge_oracle import dense_block, rank
from views import fraction_tables, nonzero_entries
from bvhy import linalg, models, serialize
from bvhy.bv import BVAlgebra, Table, check_additivity, check_bv_axioms
from bvhy.certify import is_hypersurface_footprint
from bvhy.engine import build_operation_table, naive_evaluate_tree
from bvhy.graded import Bidegree, BigradedSpace
from bvhy.hodge import check_transfer_input
from bvhy.models import (SearchExhausted, build_skew_gram_model,
                         build_torus_model, build_trivial_model,
                         builtin_models, search_nonformal)
from bvhy.rational import GradedMap
from bvhy.trees import enumerate_trees

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


def _naive_witness_output(m):
    """The witness's arity-3 operation summed tree by tree with the naive
    recursion on Elements, which shares no code with the integer table."""
    td = m.transfer_data()
    H = td.cohomology
    args = [H.basis_element(n) for n in m.witness["inputs"]]
    total = H.zero()
    for t in enumerate_trees(3, constraints={"bracket_count": 0}):
        total = total + naive_evaluate_tree(t, m.algebra, td, args)
    assert not total.is_zero
    return {n: str(v) for n, v in sorted(total.coeffs.items())}


@pytest.mark.parametrize("seed", range(16))
def test_search_witness_matches_naive_evaluator(seed):
    m = search_nonformal(seed=seed)
    assert _naive_witness_output(m) == m.witness["output"]


def test_search_takes_least_witness_by_names(monkeypatch):
    # swapping the names a and c makes harmonic index order differ from
    # name order: index order would pick ([c], [b], [a])
    build = models._witness_candidate

    def renamed(*coeffs):
        a = build(*coeffs)
        swap = {"a": "c", "c": "a"}
        space = BigradedSpace((swap.get(n, n), a.space.bidegree[n])
                              for n in a.space.names)
        return BVAlgebra(space, *a.tables[:3], a.unit)
    monkeypatch.setattr(models, "_witness_candidate", renamed)
    m = search_nonformal(seed=0)
    assert m.transfer_data().cohomology.names[1:4] == ["[c]", "[b]", "[a]"]
    assert m.witness["inputs"] == ["[a]", "[b]", "[c]"]
    assert _naive_witness_output(m) == m.witness["output"]


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


def test_product_breaking_bidegree_additivity_is_rejected():
    # x x lands on y at (1,1), where (2,0) is due
    space = BigradedSpace([("e", Bidegree(0, 0)), ("x", Bidegree(1, 0)),
                           ("y", Bidegree(1, 1))])
    message = "product 'x' 'x' -> 'y' breaks bidegree additivity"
    # an index-keyed table, as the builders write it
    product = Table({(0, n): {n: 1} for n in range(space.dim)}, 1)
    assert check_additivity(space, product) is product
    product.cols[1, 1] = {2: 1}
    with pytest.raises(ValueError, match=message):
        check_additivity(space, product)
    # the same check runs on the Fraction inputs the tests state
    d, delta = (GradedMap(space, space, shift)
                for shift in (Bidegree(0, 1), Bidegree(-1, 0)))
    with pytest.raises(ValueError, match=message):
        fraction_tables(space, d, delta, {("x", "x"): {"y": F(1)}})


def test_every_builder_checks_its_product(monkeypatch):
    dims = []

    def spy(space, product):
        dims.append(space.dim)
        return check_additivity(space, product)
    monkeypatch.setattr(models, "check_additivity", spy)
    build_trivial_model(1)
    build_torus_model(1, 0)
    build_skew_gram_model()
    search_nonformal(seed=0)
    assert dims[:3] == [2, 4, 5] and set(dims[3:]) == {7}

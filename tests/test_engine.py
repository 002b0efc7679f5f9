"""Tree evaluation and the transferred-operation tables."""

import itertools
import random
from fractions import Fraction

import pytest

import engine_oracle
from bv_oracle import bracket_model, cy3_model
from engine_oracle import (SubtreeEvaluator, bidegree_violations,
                           nonzero_keys, truncate_to_strict)
from tree_oracle import delta_trees, parse_tree
from bvhy.bv import BVAlgebra, check_bv_axioms
from bvhy.certify import Footprint, certify_formality
from bvhy.engine import (build_operation_table, check_formal_unit,
                         naive_evaluate_tree, top_degree_report)
from bvhy.elements import to_block
from bvhy.graded import Bidegree, BigradedSpace
from bvhy.hodge import InnerProduct, build_transfer_data, check_transfer_input
from bvhy.models import (build_torus_model, build_trivial_model,
                         builtin_models, search_nonformal)
from bvhy.rational import GradedMap
from bvhy.serialize import dump, table_to_json
from bvhy.trees import DecoratedTree, enumerate_trees, leaf

F = Fraction


@pytest.fixture(scope="module")
def trivial():
    return build_trivial_model(2)


@pytest.fixture(scope="module")
def torus():
    return build_torus_model(1, 1)


def test_transferred_product_on_zero_differential_model(trivial):
    a, td = trivial.algebra, trivial.transfer_data()
    constants = build_operation_table(a, td, 2).ops[(2, 0)]
    # iota and pi are identities here, so the constants are the algebra's
    for (x, y), col in a.product.items():
        assert constants[(f"[{x}]", f"[{y}]")] == \
            {f"[{t}]": v for t, v in col.items()}
    for key in constants:
        x, y = (n.strip("[]") for n in key)
        assert (x, y) in a.product


def test_lie_type_trees_act_as_zero_on_torus(torus):
    a, td = torus.algebra, torus.transfer_data()
    evaluator = SubtreeEvaluator(a, td)
    H = td.cohomology
    for k in (2, 3, 4):
        trees = [t for t in enumerate_trees(k) if t.count("br") == k - 1]
        for t in trees:
            assert evaluator.operation_constants(t) == {}
            # oracle: direct naive evaluation on every basis tuple
    t = parse_tree("(br (br 1 2) 3)")
    names = H.names
    rng = random.Random(1)
    for _ in range(20):
        args = [H.basis_element(rng.choice(names)) for _ in range(3)]
        assert naive_evaluate_tree(t, a, td, args).is_zero


def test_delta_trees_vanish_on_trivialized_model(torus):
    a, td = torus.algebra, torus.transfer_data()
    evaluator = SubtreeEvaluator(a, td)
    for t in delta_trees(3):
        assert evaluator.operation_constants(t) == {}


def test_memoized_matches_naive_on_random_instances(torus, random_tree,
                                                    random_harmonic_element):
    a, td = torus.algebra, torus.transfer_data()
    evaluator = SubtreeEvaluator(a, td)
    H = td.cohomology
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(2, 4)
        t = random_tree(rng, k, allow_delta=rng.random() < 0.3)
        args = [random_harmonic_element(rng, H) for _ in range(k)]
        fast = evaluator.evaluate(t, args)
        slow = naive_evaluate_tree(t, a, td, args)
        assert fast.coeffs == slow.coeffs


def test_evaluate_tree_wrapper_and_errors(torus):
    a, td = torus.algebra, torus.transfer_data()
    evaluator = SubtreeEvaluator(a, td)
    H = td.cohomology
    t = parse_tree("(mul 1 2)")
    u = [n for n in H.names if n == f"[{a.unit}]"][0]
    out = evaluator.evaluate(t, [H.basis_element(u), H.basis_element(u)])
    assert out == H.basis_element(u)
    with pytest.raises(ValueError):
        evaluator.evaluate(t, [H.basis_element(u)])
    with pytest.raises(ValueError):
        evaluator.evaluate(t, [a.space.basis_element(a.unit),
                               a.space.basis_element(a.unit)])


def test_operation_table_and_bidegree_law(torus):
    a, td = torus.algebra, torus.transfer_data()
    table = build_operation_table(a, td, 4)
    assert bidegree_violations(table) == []
    assert (2, 0) in table.ops and table.ops[(2, 0)]
    assert table.unit_class() == f"[{a.unit}]"
    strict_only = truncate_to_strict(table)
    assert all(l == k - 2 for (k, l) in strict_only.ops)


def test_formal_unit_and_top_degree_on_zero_differential_model(trivial):
    a, td = trivial.algebra, trivial.transfer_data()
    table = build_operation_table(a, td, 4)
    # with h = 0 everything beyond the product vanishes
    assert nonzero_keys(table) == [(2, 0)]
    assert check_formal_unit(table).passed
    assert top_degree_report(table, 2).passed


def test_formal_unit_detects_violation(trivial):
    a, td = trivial.algebra, trivial.transfer_data()
    table = build_operation_table(a, td, 3)
    assert check_formal_unit(table).passed
    # the checks read the integer tables: plant there, keyed by index
    u = td.cohomology.index[table.unit_class()]
    table.tables[(3, 0)] = {(u, u, u): {u: 1}}, 1
    report = check_formal_unit(table)
    assert not report.passed
    table.tables[(3, 0)] = {}, 1
    assert check_formal_unit(table).passed
    other = next(j for j in range(len(td.cohomology.names)) if j != u)
    constants, den = table.tables[(2, 0)]
    constants[(u, other)] = {other: 2 * den}
    assert not check_formal_unit(table).passed


def _sum_constants(parts):
    out = {}
    for constants in parts:
        for key, col in constants.items():
            dst = out.setdefault(key, {})
            for name, v in col.items():
                dst[name] = dst.get(name, F(0)) + v
    return {key: {n: v for n, v in col.items() if v != 0}
            for key, col in out.items() if any(v != 0 for v in col.values())}


def test_subset_recursion_matches_per_tree_sums(evaluators):
    models = list(builtin_models()) + [search_nonformal(seed=s)
                                       for s in (0, 1)]
    nonzero_higher = 0
    for m in models:
        a, td = m.algebra, m.transfer_data()
        evaluator = evaluators.get(m.name) or SubtreeEvaluator(a, td)
        table = build_operation_table(a, td, 5)
        assert sorted(table.ops) == [(k, l) for k in range(2, 6)
                                     for l in range(k - 1)]
        for (k, l), constants in table.ops.items():
            trees = enumerate_trees(k, constraints={"bracket_count": l})
            expected = _sum_constants(evaluator.operation_constants(t)
                                      for t in trees)
            assert constants == expected, (m.name, k, l)
            if k >= 3:
                nonzero_higher += sum(len(col) for col in constants.values())
    assert nonzero_higher > 0


def test_subset_recursion_matches_naive_on_witness():
    m = search_nonformal(seed=0)
    a, td = m.algebra, m.transfer_data()
    H = td.cohomology
    constants = build_operation_table(a, td, 3).ops[(3, 0)]
    trees = enumerate_trees(3, constraints={"bracket_count": 0})
    nonzero = 0
    for key in itertools.product(H.names, repeat=3):
        args = [H.basis_element(n) for n in key]
        total = H.zero()
        for t in trees:
            total = total + naive_evaluate_tree(t, a, td, args)
        assert total.coeffs == constants.get(key, {}), key
        nonzero += not total.is_zero
    assert nonzero > 0


def _sorted_word(word):
    """Sign and sorted form of a word in odd generators; None on a repeat."""
    if len(set(word)) < len(word):
        return None
    inversions = sum(x > y for i, x in enumerate(word) for y in word[i + 1:])
    return (-1) ** inversions, tuple(sorted(word))


def _nilpotent_ce(n, scale):
    """Chevalley-Eilenberg algebra with generators g_1..g_n at (0,1) and
    d g_k = c_k g_1 g_{k-1} for k >= 3 (Heisenberg for n = 3, filiform L_n
    above); d^2 = 0 for any c_k because g_1 g_1 = 0."""
    gens = range(1, n + 1)
    subsets = [s for r in range(n + 1) for s in itertools.combinations(gens, r)]

    def name(s):
        return "g" + "".join(map(str, s))

    space = BigradedSpace([(name(s), Bidegree(0, len(s))) for s in subsets])
    product = {}
    for s in subsets:
        for t in subsets:
            merged = _sorted_word(s + t)
            if merged:
                product[(name(s), name(t))] = {name(merged[1]): F(merged[0])}
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
                    (-1) ** j * sign * scale(k)
        d[name(s)] = col
    return BVAlgebra(space, GradedMap(space, space, Bidegree(0, 1), d),
                     GradedMap.zero(space, space, Bidegree(-1, 0)),
                     product, "g")


def _fractional_model():
    """``bracket_model()`` with ``w`` rescaled by 3/2, so ``s z = 2/3 w``,
    and two isolated harmonic classes with unit rows, ``t`` beside ``r`` at
    (2,1) and ``u`` beside ``q`` at (1,2), each coupled to its neighbour by
    1/2 in the Gram form: ``[u]`` is ``u - q/2``, ``pi(r) = [t]/2`` and
    ``h(p) = r - t/2``.  Returns the algebra and its Gram form."""
    b = bracket_model()
    space = BigradedSpace([(n, b.space.bidegree[n]) for n in b.space.names]
                          + [("t", Bidegree(2, 1)), ("u", Bidegree(1, 2))])
    d, delta = (GradedMap(space, space, m.shift, m.entries)
                for m in (b.d, b.delta))
    product = dict(b.product)
    product[("s", "z")] = product[("z", "s")] = {"w": F(2, 3)}
    product[("e", "t")] = {"t": F(1)}
    product[("e", "u")] = {"u": F(1)}
    half = to_block([[F(1), F(1, 2)], [F(1, 2), F(1)]])
    return BVAlgebra(space, d, delta, product, "e"), InnerProduct(
        space, {Bidegree(2, 1): half, Bidegree(1, 2): half})


def _oracle_cases(models):
    for m in list(models) + [search_nonformal(seed=s) for s in (0, 1)]:
        yield m.name, m.algebra, m.transfer_data()
    for n in (3, 4, 5):
        a = _nilpotent_ce(n, lambda k: F(2 * k - 1, k - 1))
        assert check_bv_axioms(a).passed
        yield f"ce({n})", a, build_transfer_data(a)
    a = bracket_model()
    td, reports = check_transfer_input(a)
    assert all(r.passed for r in reports)
    yield "bracket", a, td
    # no built-in export has a non-integer entry: here every table the
    # engine reads has a denominator above 1, and so has the output
    a, ip = _fractional_model()
    td, reports = check_transfer_input(a, ip)
    assert all(r.passed for r in reports)
    assert [t.den for t in td.tables] == [2, 2, 2]
    assert (a.tables.product.den, a.tables.brackets.den) == (3, 3)
    strict = build_operation_table(a, td, 3).ops[(3, 1)]
    assert len(strict) == 6
    assert all(col == {"[w]": F(-4, 3)} for col in strict.values())
    yield "fractional", a, td


def test_bracket_model_has_a_nonzero_strict_bracket_entry():
    a = bracket_model()
    td, reports = check_transfer_input(a)
    assert all(r.passed for r in reports)
    table = build_operation_table(a, td, 5)
    assert check_formal_unit(table).passed
    H = td.cohomology
    x, y, z, w = (f"[{n}]" for n in "xyzw")
    assert {x, y, z, w} <= set(H.names)
    strict = table.ops[(3, 1)]
    for key in itertools.permutations((x, y, z)):
        assert strict[key] == {w: F(-2)}, key
    args = [H.basis_element(n) for n in (x, y, z)]
    total = H.zero()
    for t in enumerate_trees(3, constraints={"bracket_count": 1}):
        total = total + naive_evaluate_tree(t, a, td, args)
    assert total.coeffs == {w: F(-2)}


def test_cy3_shaped_model_is_formal_with_a_nonzero_strict_operation():
    # the paper's statement in small: the certificate says "formal", the
    # strict (3,1) operation is nonzero and every higher operation vanishes
    a = cy3_model()
    td, reports = check_transfer_input(a)
    assert all(r.passed for r in reports)
    assert a.delta.entries
    H = td.cohomology
    footprint = Footprint(3, {deg: len(H.names_at(deg))
                              for deg in H.occupied_bidegrees()})
    assert footprint.occupied == {(0, 0): 1, (1, 1): 3, (2, 2): 1, (3, 3): 1}
    assert certify_formality(footprint).verdict == "formal"
    table = build_operation_table(a, td, 6)
    strict = table.ops[(3, 1)]
    assert len(strict) == 6
    assert all(col == {"[w]": F(-2)} for col in strict.values())
    higher = {(k, l) for k in range(3, 7) for l in range(k - 2)}
    assert higher <= set(table.ops)
    assert all(not table.ops[kl] for kl in higher)
    assert check_formal_unit(table).passed
    assert top_degree_report(table, 3).passed


@pytest.fixture(scope="module")
def oracle_cases(models):
    return list(_oracle_cases(models))


def test_tables_match_the_reference_engine(oracle_cases):
    higher = brackets = 0
    for name, a, td in oracle_cases:
        got = build_operation_table(a, td, 6)
        want = engine_oracle.build_operation_table(a, td, 6)
        assert dump(table_to_json(got)) == \
            dump(engine_oracle.table_json(td, want)), name
        assert got.ops == want, name
        assert [(kl, list(c)) for kl, c in got.ops.items()] == \
            [(kl, list(c)) for kl, c in want.items()], name
        higher += sum(len(got.ops[(k, 0)]) for k in range(4, 7))
        brackets += sum(len(c) for (_k, l), c in got.ops.items() if l)
    assert higher > 0 and brackets > 0


def test_tree_evaluator_matches_the_reference_evaluator(oracle_cases):
    trees = [t for k in range(1, 5) for t in enumerate_trees(k)]
    trees += [t for k in range(1, 4) for t in delta_trees(k)]
    nonzero = 0
    for name, a, td in oracle_cases:
        fast = SubtreeEvaluator(a, td)
        slow = engine_oracle.TreeEvaluator(a, td)
        for t in trees:
            # an order-reversing relabelling is another operation that
            # both evaluators must rank the same way
            for tree in (t, _relabel(t, lambda i: 20 - 3 * i)):
                got = fast.operation_constants(tree)
                assert got == slow.operation_constants(tree), (name, tree)
                nonzero += tree.arity >= 3 and bool(got)
    assert nonzero > 0


def _relabel(t, f):
    if t.is_leaf:
        return leaf(f(t.label))
    return DecoratedTree(t.kind, children=tuple(_relabel(c, f)
                                                for c in t.children))


def _strict_asymmetries(table):
    """``(key, i)`` for each key of a strict ``(k, k-2)`` table whose value
    with arguments ``i`` and ``i + 1`` swapped is not ``(-1)^(|a_i||a_i+1|)``
    times its own, total degrees counted on cohomology.  Hypercommutative
    operations are graded-symmetric (Getzler, 1995), and adjacent
    transpositions generate the symmetric group."""
    H = table.td.cohomology
    odd = {n: sum(H.bidegree[n]) % 2 for n in H.names}
    bad = []
    for (k, l), constants in table.ops.items():
        if l != k - 2:
            continue
        for key, col in constants.items():
            for i in range(k - 1):
                swapped = key[:i] + (key[i + 1], key[i]) + key[i + 2:]
                sign = -1 if odd[key[i]] and odd[key[i + 1]] else 1
                if constants.get(swapped, {}) != {t: sign * v
                                                  for t, v in col.items()}:
                    bad.append((key, i))
    return bad


def test_builtin_strict_tables_are_graded_symmetric(tables):
    for name, table in tables.items():
        assert (2, 0) in table.ops
        assert not _strict_asymmetries(table), name


_ODD_Z = pytest.mark.xfail(strict=True, reason=(
    "with z odd the strict (3,1) table misses (z,x,y) and (z,y,x): the "
    "right-vertex sign rule, ROADMAP.md open item 1"))


@pytest.mark.parametrize("z", [(1, 1), (2, 0), (0, 2),
                               pytest.param((0, 1), marks=_ODD_Z),
                               pytest.param((1, 0), marks=_ODD_Z), "cy3"])
def test_bracket_model_strict_tables_are_graded_symmetric(z):
    a = cy3_model() if z == "cy3" else bracket_model(z)
    td, reports = check_transfer_input(a)
    assert all(r.passed for r in reports)
    table = build_operation_table(a, td, 5)
    assert table.ops[(3, 1)]
    assert not _strict_asymmetries(table)

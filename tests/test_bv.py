"""BV-algebra axioms: brute-force oracles on small models, failure paths."""

import itertools
import random
from fractions import Fraction

import pytest

import bv_oracle
from bv_oracle import fraction_algebra
from bvhy.bv import check_bv_axioms
from bvhy.elements import (apply, bracket, koszul_sign, multiply,
                           nonzero_entries)
from bvhy.graded import Bidegree, BigradedSpace
from bvhy.models import build_torus_model, build_trivial_model, builtin_models
from bvhy.rational import GradedMap
from bvhy.serialize import algebra_from_json, algebra_to_json

F = Fraction


def _item(report, name):
    for it in report.items:
        if it.name == name:
            return it
    raise KeyError(name)


def test_trivial_model_passes_all_axioms():
    report = check_bv_axioms(build_trivial_model(2).algebra)
    assert report.passed, [i.to_dict() for i in report.failures()]


def test_torus_model_passes_and_matches_bruteforce_associativity():
    a = build_torus_model(1, 1).algebra
    assert check_bv_axioms(a).passed
    # oracle: brute force over every basis triple, no pruning
    names = a.space.names
    for x, y, z in itertools.product(names, repeat=3):
        ex, ey, ez = (a.space.basis_element(n) for n in (x, y, z))
        assert multiply(a, multiply(a, ex, ey), ez) == \
            multiply(a, ex, multiply(a, ey, ez))


def test_bracket_matches_three_term_formula_term_by_term():
    a = build_torus_model(1, 1).algebra
    rng = random.Random(3)
    names = a.space.names
    for _ in range(50):
        x = a.space.basis_element(rng.choice(names))
        y = a.space.basis_element(rng.choice(names))
        # oracle: evaluate each of the three terms independently
        t1 = apply(a.delta, multiply(a, x, y))
        t2 = multiply(a, apply(a.delta, x), y)
        t3 = multiply(a, x, apply(a.delta, y)).scale(
            koszul_sign(1, x.total_degree))
        assert bracket(a, x, y) == t1 - t2 - t3


def test_bracket_graded_symmetry_on_torus():
    a = build_torus_model(1, 1).algebra
    for x in a.space.names:
        for y in a.space.names:
            ex, ey = a.space.basis_element(x), a.space.basis_element(y)
            sign = koszul_sign(ex.total_degree, ey.total_degree)
            assert bracket(a, ex, ey) == bracket(a, ey, ex).scale(sign)


def test_bracket_vanishes_when_delta_is_zero():
    a = build_trivial_model(3).algebra
    for x in a.space.names[:4]:
        for y in a.space.names[:4]:
            assert bracket(a, a.space.basis_element(x),
                           a.space.basis_element(y)).is_zero


def test_order_three_operator_fails_the_leibniz_check():
    # exterior algebra on three generators with "delta" = contraction by
    # the top trivector: a third-order operator, so the order-2 item fails
    m = build_trivial_model(3)
    a = m.algebra
    bad_delta = GradedMap.zero(a.space, a.space, Bidegree(-1, 0))
    bad_delta.set_entry("x123", "x", F(1))
    broken = fraction_algebra(a.space, a.d, bad_delta, a.product, "x")
    report = check_bv_axioms(broken)
    assert not report.passed
    assert not _item(report, "delta has order <= 2 (bracket Leibniz)").passed
    assert not _item(report, "delta has shift (-1,0)").passed


def test_broken_associativity_detected():
    m = build_trivial_model(2)
    a = m.algebra
    product = {k: dict(v) for k, v in a.product.items()}
    product[("x1", "x2")] = {"x12": F(2)}   # breaks (x1 x2) x vs x1 (x2 x)
    broken = fraction_algebra(a.space, a.d, a.delta, product, "x")
    report = check_bv_axioms(broken)
    commut = _item(report, "graded commutativity")
    assoc = _item(report, "associativity")
    assert not (commut.passed and assoc.passed)


def test_broken_derivation_detected():
    m = build_torus_model(1, 1)
    a = m.algebra
    d = GradedMap(a.space, a.space, a.d.shift,
                  {s: dict(c) for s, c in a.d.entries.items()})
    src = "m1|f|v"          # mode 1, no form letters, no polyvector letters
    tgt = "m1|f1|v"
    assert d.entries[src][tgt] == F(1)
    d.set_entry(src, tgt, F(5))
    broken = fraction_algebra(a.space, d, a.delta, a.product, a.unit)
    report = check_bv_axioms(broken)
    assert not _item(report, "d is a derivation of the product").passed


def test_unit_must_sit_at_origin():
    m = build_trivial_model(1)
    with pytest.raises(ValueError):
        fraction_algebra(m.algebra.space, m.algebra.d, m.algebra.delta,
                         m.algebra.product, "x1")
    with pytest.raises(ValueError):
        fraction_algebra(m.algebra.space, m.algebra.d, m.algebra.delta,
                         m.algebra.product, "nope")


def test_symmetrized_product_and_odd_squares():
    a = build_trivial_model(2).algebra
    # mirror entries carry the Koszul sign of the two odd generators
    assert a.product[("x1", "x2")] == {"x12": F(1)}
    assert a.product[("x2", "x1")] == {"x12": F(-1)}
    assert ("x1", "x1") not in a.product


def _mutated(a, field):
    """``a`` with one ``field`` entry perturbed: a product key and its
    mirror scaled by 2, or the first ``d``/``delta`` entry doubled (added
    with value 1 on the first pair that keeps the shift, when the map is
    zero).  None when no pair keeps the shift."""
    if field == "product":
        keys = [k for k in a.product if a.unit not in k] or list(a.product)
        product = {k: dict(v) for k, v in a.product.items()}
        for k in {keys[0], keys[0][::-1]}:
            product[k] = {t: 2 * v for t, v in product[k].items()}
        return fraction_algebra(a.space, a.d, a.delta, product, a.unit)
    old = getattr(a, field)
    m = GradedMap(a.space, a.space, old.shift,
                  {s: dict(c) for s, c in old.entries.items()})
    if m.entries:
        src, tgt, v = nonzero_entries(m)[0]
        m.set_entry(src, tgt, 2 * v)
    else:
        deg = a.space.bidegree
        pair = next(((s, t) for s in a.space.names for t in a.space.names
                     if deg[t] == deg[s] + old.shift), None)
        if pair is None:
            return None
        m.set_entry(*pair, F(1))
    return fraction_algebra(a.space, m if field == "d" else a.d,
                            m if field == "delta" else a.delta, a.product,
                            a.unit)


def _rescaled_heisenberg():
    """Exterior algebra on x1 (1,0), x2 (0,1), x3 (1,0) with d x3 = x1 x2
    (the Chevalley-Eilenberg algebra of the Heisenberg Lie algebra), each
    monomial x_S replaced by mu_S x_S, so that its product and d constants
    are not integers."""
    ext = build_trivial_model(3).algebra
    gens = {"1": Bidegree(1, 0), "2": Bidegree(0, 1), "3": Bidegree(1, 0)}
    space = BigradedSpace([(n, Bidegree(sum(gens[g].p for g in n[1:]),
                                        sum(gens[g].q for g in n[1:])))
                           for n in ext.space.names])
    mu = dict(zip(space.names, (F(1), F(2), F(1, 3), F(3, 2), F(5), F(1, 7),
                                F(4, 3), F(2, 5))))
    product = {(x, y): {t: v * mu[x] * mu[y] / mu[t] for t, v in col.items()}
               for (x, y), col in ext.product.items()}
    d = GradedMap(space, space, Bidegree(0, 1),
                  {"x3": {"x12": mu["x3"] / mu["x12"]}})
    return fraction_algebra(space, d,
                            GradedMap.zero(space, space, Bidegree(-1, 0)),
                            product, "x")


def test_rescaled_exterior_algebra_has_non_integer_constants():
    a = _rescaled_heisenberg()
    assert check_bv_axioms(a).passed
    for table in (a.product, a.d.entries):
        assert max(v.denominator for col in table.values()
                   for v in col.values()) > 1


_BASE = {m.name: m.algebra for m in builtin_models()}
_BASE["trivial(2)"] = build_trivial_model(2).algebra
_BASE["heisenberg-rescaled"] = _rescaled_heisenberg()
_VARIANTS = {f"{name}-{field}": (name, field,
                                 a if field == "none" else _mutated(a, field))
             for name, a in _BASE.items()
             for field in ("none", "product", "d", "delta")}
# trivial(n) has no pair of basis elements a d of shift (0,1) could join
_VARIANTS = {k: v for k, v in _VARIANTS.items() if v[2] is not None}

# the report item of each trilinear check, and its reference checker
_CHECKS = {
    "associativity": ("associativity", bv_oracle.associativity),
    "derivation": ("d is a derivation of the product", bv_oracle.derivation),
    "order two": ("delta has order <= 2 (bracket Leibniz)",
                  bv_oracle.order_two),
}
# associativity reads only the product, derivation also d, order two also
# delta; a check the mutation does not reach sees the unmutated model's inputs
_READS = {"none": list(_CHECKS), "product": list(_CHECKS),
          "d": ["derivation"], "delta": ["order two"]}


def _indexed(a):
    """``(passed, witness)`` of each trilinear item of ``check_bv_axioms``,
    which runs them on integer tables and may skip unit triples."""
    report = check_bv_axioms(a)
    return {check: (_item(report, name).passed, _item(report, name).witness)
            for check, (name, _reference) in _CHECKS.items()}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_indexed_checks_match_reference_checkers(variant):
    _name, field, a = _VARIANTS[variant]
    indexed = _indexed(a)
    for check in _READS[field]:
        assert indexed[check] == _CHECKS[check][1](a), check


@pytest.mark.parametrize("variant", [v for v, (name, _f, _a) in _VARIANTS.items()
                                     if name in ("trivial(2)", "torus(1,1)")])
def test_indexed_verdicts_match_unpruned_loop(variant):
    name, _field, a = _VARIANTS[variant]
    if name == "torus(1,1)":
        # order two then compares nonzero brackets, not only 0 = 0
        assert a.brackets
    verdicts = tuple(passed for passed, _witness in _indexed(a).values())
    assert verdicts == bv_oracle.unpruned(a)


def test_mutations_reach_every_trilinear_failure():
    failed = {check for _name, field, a in _VARIANTS.values()
              for check in _READS[field] if not _indexed(a)[check][0]}
    assert failed == set(_CHECKS)


@pytest.mark.parametrize("broken", ["unit law", "graded commutativity"])
def test_unit_triples_are_checked_when_a_prerequisite_fails(broken):
    a = build_trivial_model(2).algebra
    product = {k: dict(v) for k, v in a.product.items()}
    product[("x1", "x")] = {"x1": F(2)}
    if broken == "unit law":
        # the left unit row too, so that commutativity still holds
        product[("x", "x1")] = {"x1": F(2)}
    a = fraction_algebra(a.space, a.d, a.delta, product, "x")
    report = check_bv_axioms(a)
    assert [i.name for i in report.failures()] == [broken, "associativity"]
    assoc = _item(report, "associativity")
    assert (assoc.passed, assoc.witness) == bv_oracle.associativity(a)
    assert "x" in assoc.witness


def test_unit_skip_keeps_the_reference_witness():
    a = _mutated(_rescaled_heisenberg(), "product")
    report = check_bv_axioms(a)
    assert _item(report, "unit law").passed
    assert _item(report, "graded commutativity").passed
    assoc = _item(report, "associativity")
    assert not assoc.passed and "x" not in assoc.witness
    assert (assoc.passed, assoc.witness) == bv_oracle.associativity(a)


def _algebra(basis, product, d=(), delta=()):
    """Unit ``e``; ``product`` maps a key to one ``(target, constant)``,
    ``d`` and ``delta`` a source to one."""
    space = BigradedSpace([(n, Bidegree(*deg)) for n, deg in basis])
    table = {("e", n): {n: F(1)} for n in space.names}
    table.update({k: {t: F(v)} for k, (t, v) in product.items()})
    d, delta = (GradedMap(space, space, shift, {s: {t: F(v)} for s, (t, v)
                                                 in dict(entries).items()})
                for shift, entries in ((Bidegree(0, 1), d),
                                       (Bidegree(-1, 0), delta)))
    return fraction_algebra(space, d, delta, table, "e")


@pytest.mark.parametrize("b_squared", [1, 2])
def test_associativity_representatives_include_repeated_names(b_squared):
    # powers of an even a up to a^4, with b = a^2 before a in the basis;
    # with b b = 2 a^4 only the orders of a, a, b fail, and a is the last
    a = _algebra([("e", (0, 0)), ("b", (2, 2)), ("a", (1, 1)),
                  ("c", (3, 3)), ("d", (4, 4))],
                 {("a", "a"): ("b", 1), ("a", "b"): ("c", 1),
                  ("a", "c"): ("d", 1), ("b", "b"): ("d", b_squared)})
    assoc = _item(check_bv_axioms(a), "associativity")
    assert (assoc.passed, assoc.witness) == bv_oracle.associativity(a)
    assert assoc.passed == (b_squared == 1)


@pytest.mark.parametrize("d_of_b", [2, 4])
def test_derivation_representatives_include_repeated_names(d_of_b):
    # a even with d a = u and b = a a, v = a u: d b = 2v is the Leibniz
    # rule, and with d b = 4v only the pair (a, a) fails
    a = _algebra([("e", (0, 0)), ("a", (1, 1)), ("u", (1, 2)),
                  ("b", (2, 2)), ("v", (2, 3))],
                 {("a", "a"): ("b", 1), ("a", "u"): ("v", 1)},
                 {"a": ("u", 1), "b": ("v", d_of_b)})
    item = _item(check_bv_axioms(a), "d is a derivation of the product")
    assert (item.passed, item.witness) == bv_oracle.derivation(a)
    assert item.passed == (d_of_b == 2)


@pytest.mark.parametrize("product,passed", [
    ({("f", "f"): ("e", 1)}, False),
    ({("f", "f"): ("e", 1), ("f", "g"): ("h", 1), ("f", "h"): ("g", 1)},
     True)], ids=["f-squared-unit", "z2-dual-numbers"])
def test_associativity_reads_products_that_hit_the_unit(product, passed):
    # every name at (0, 0): with f f = e alone (f f) g = g but f (f g) = 0;
    # with f g = h and f h = g it is Z/2 tensor the dual numbers, which is
    # associative, and (f f) g = f (f g) = g
    names = ["e", "f", "g"] + (["h"] if passed else [])
    a = _algebra([(n, (0, 0)) for n in names], product)
    report = check_bv_axioms(a)
    assert _item(report, "graded commutativity").passed
    assoc = _item(report, "associativity")
    assert (assoc.passed, assoc.witness) == bv_oracle.associativity(a)
    assert assoc.passed == passed


def _sweep_bases():
    """The models of the mutant sweep: nonzero brackets (torus(1,1) and
    the bracket model, with z even and odd), non-integer constants, and
    torus(2,1) left out for time."""
    bases = {m.name: m.algebra for m in builtin_models()
             if m.name != "torus(2,1)"}
    bases["trivial(2)"] = build_trivial_model(2).algebra
    bases["heisenberg-rescaled"] = _rescaled_heisenberg()
    bases["bracket"] = bv_oracle.bracket_model()
    bases["bracket-odd-z"] = bv_oracle.bracket_model((0, 1))
    return bases


def _with_product(a, change):
    product = {k: dict(v) for k, v in a.product.items()}
    change(product)
    return fraction_algebra(a.space, a.d, a.delta, product, a.unit)


def _sweep_mutants(a, rng, per_kind=12):
    """Commutativity-preserving mutants of ``a``: one non-unit product key
    and its mirror scaled, dropped or retargeted (one target moved to
    another name of its bidegree), or one ``d`` or ``delta`` entry
    doubled."""
    index, deg = a.space.index, a.space.bidegree
    keys = sorted({tuple(sorted(k, key=index.__getitem__))
                   for k in a.product if a.unit not in k},
                  key=lambda k: (index[k[0]], index[k[1]]))

    def both(k):
        return {k, k[::-1]}

    for k in rng.sample(keys, min(per_kind, len(keys))):
        factor = rng.choice((F(2), F(-1), F(1, 3)))

        def scale(product, k=k, factor=factor):
            for key in both(k):
                product[key] = {t: factor * v for t, v in product[key].items()}
        yield f"scale {k}", _with_product(a, scale)

    for k in rng.sample(keys, min(per_kind, len(keys))):
        def drop(product, k=k):
            for key in both(k):
                del product[key]
        yield f"drop {k}", _with_product(a, drop)

    retargets = [(k, t, u) for k in keys for t in sorted(a.product[k])
                 for u in a.space.names_at(deg[t])
                 if u not in a.product[k]]
    for k, t, u in rng.sample(retargets, min(per_kind, len(retargets))):
        def retarget(product, k=k, t=t, u=u):
            for key in both(k):
                product[key][u] = product[key].pop(t)
        yield f"retarget {k} {t}->{u}", _with_product(a, retarget)

    for field in ("d", "delta"):
        old = getattr(a, field)
        entries = nonzero_entries(old)
        for src, tgt, v in rng.sample(entries, min(per_kind, len(entries))):
            m = GradedMap(a.space, a.space, old.shift,
                          {s: dict(c) for s, c in old.entries.items()})
            m.set_entry(src, tgt, 2 * v)
            yield f"double {field} {src}->{tgt}", fraction_algebra(
                a.space, m if field == "d" else a.d,
                m if field == "delta" else a.delta, a.product, a.unit)


_SWEEP = [(f"{name}: {label}", m)
          for name, a in _sweep_bases().items()
          for label, m in _sweep_mutants(a, random.Random(f"sweep:{name}"))]


def _zero_product_reaches_a_failure(a):
    """Whether some x y = 0 has x (y z) != 0 for a basis element z."""
    e = {n: a.space.basis_element(n) for n in a.space.names}
    return any(not multiply(a, e[x], e[y]).coeffs
               and multiply(a, e[x], multiply(a, e[y], e[z])).coeffs
               for x, y, z in itertools.product(e, repeat=3))


def _zero_product_at(a, witness):
    """Whether the basis elements of ``witness`` multiply to 0."""
    x, y = (a.space.basis_element(n) for n in witness)
    return not multiply(a, x, y).coeffs


def test_reduced_scans_keep_the_reference_verdicts_and_witnesses():
    failed = {check: [] for check in _CHECKS}
    for label, a in _SWEEP:
        report = check_bv_axioms(a)
        assert _item(report, "graded commutativity").passed, label
        for check, (name, reference) in _CHECKS.items():
            item = _item(report, name)
            assert (item.passed, item.witness) == reference(a), (label, check)
            if not item.passed:
                failed[check].append((a, item.witness))
    assert all(len(fails) >= 10 for fails in failed.values()), \
        {check: len(fails) for check, fails in failed.items()}
    assert any(_zero_product_reaches_a_failure(a)
               for a, _witness in failed["associativity"])
    # the derivation scan reaches pairs that are not product keys
    assert any(_zero_product_at(a, witness)
               for a, witness in failed["derivation"])


def test_bracket_table_matches_the_three_term_formula():
    # every basis pair, on the sweep models with a nonzero bracket and on
    # cy3_model(): the table holds exactly the nonzero brackets
    models = [(label, a) for label, a in _SWEEP if a.brackets]
    models.append(("cy3", bv_oracle.cy3_model()))
    assert len(models) >= 40
    nonzero = 0
    for label, a in models:
        e = {n: a.space.basis_element(n) for n in a.space.names}
        for x, y in itertools.product(e, repeat=2):
            want = bv_oracle._bracket(a, e[x], e[y]).coeffs
            assert a.brackets.get((x, y), {}) == want, (label, x, y)
            nonzero += bool(want)
    assert nonzero >= 1000


# the tuples each scan keeps once graded commutativity has passed, by index
_CUT = {"associativity": lambda i, j, k: k >= max(i, j),
        "derivation": lambda i, j: i <= j,
        "order two": lambda i, j, k: j <= k}


def _one_order_doubled(key):
    """torus(1,1) with the product of ``key``, in that order only,
    doubled: graded commutativity fails."""
    return _with_product(build_torus_model(1, 1).algebra, lambda product:
                         product.update({key: {t: 2 * v for t, v
                                               in product[key].items()}}))


@pytest.mark.parametrize("key,failing", [
    (("m0|f1|v1", "m-1|f|v"), {"associativity", "order two"}),
    (("m0|f|v1", "m-1|f|v"), {"derivation"})])
def test_commutativity_break_runs_the_ordered_scans_only(key, failing):
    # commutativity fails, so the scans keep every tuple, and the items
    # named fail on a tuple that the symmetry cut would have skipped
    a = _one_order_doubled(key)
    report = check_bv_axioms(a)
    assert not _item(report, "graded commutativity").passed
    for check, (name, reference) in _CHECKS.items():
        item = _item(report, name)
        assert (item.passed, item.witness) == reference(a), check
    for check in failing:
        item = _item(report, _CHECKS[check][0])
        assert not item.passed
        assert not _CUT[check](*(a.space.index[n] for n in item.witness))


def _renamed(doc, new):
    """``doc`` with each basis name ``n`` spelled ``new[n]``."""
    def rows(key, k):
        return [[new[n] for n in row[:k]] + row[k:] for row in doc[key]]
    basis = [dict(b, name=new[b["name"]]) for b in doc["basis"]]
    return dict(doc, basis=basis, unit=new[doc["unit"]],
                product=rows("product", 3), d=rows("d", 2),
                delta=rows("delta", 2))


def _respelled(witness, spelling):
    """``witness`` with each basis name ``n`` in it spelled ``spelling[n]``."""
    if isinstance(witness, str):
        return spelling.get(witness, witness)
    if isinstance(witness, (list, tuple)):
        return type(witness)(_respelled(w, spelling) for w in witness)
    return witness


def _two_d_chains():
    """Unit e and the d chains p -> q -> r and s -> t -> u, so that d^2 is
    nonzero on p and on s."""
    return _algebra([("e", (0, 0)), ("p", (1, 0)), ("q", (1, 1)),
                     ("r", (1, 2)), ("s", (2, 0)), ("t", (2, 1)),
                     ("u", (2, 2))], {},
                    {"p": ("q", 1), "q": ("r", 1), "s": ("t", 1),
                     "t": ("u", 1)})


@pytest.mark.parametrize("transform",
                         ["shuffle rows", "rename in basis order"])
def test_reports_do_not_depend_on_row_order_or_names(transform):
    # every failing sweep mutant, a d^2 with two nonzero entries and a
    # break of graded commutativity, exported and read back, then given in
    # another spelling of the same algebra: its report, witnesses included,
    # must not move
    failing = [("two d chains", _two_d_chains()),
               ("one order doubled",
                _one_order_doubled(("m0|f1|v1", "m-1|f|v")))]
    failing += [(label, a) for label, a in _SWEEP
                if not check_bv_axioms(a).passed]
    assert any(label.startswith("bracket") and a.brackets
               for label, a in failing)
    rng = random.Random(f"metamorphic:{transform}")
    for label, a in failing:
        doc = algebra_to_json(a)
        back = {}
        if transform == "shuffle rows":
            other = dict(doc, **{key: rng.sample(doc[key], len(doc[key]))
                                 for key in ("product", "d", "delta")})
        else:
            # the string order of the new names reverses the basis order
            names = [b["name"] for b in doc["basis"]]
            new = {n: f"n{len(names) - i:03d}" for i, n in enumerate(names)}
            back = {v: n for n, v in new.items()}
            other = _renamed(doc, new)
        expected, got = (
            [(i.name, i.passed, _respelled(i.witness, spelling)) for i
             in check_bv_axioms(algebra_from_json(d)[0]).items]
            for d, spelling in ((doc, {}), (other, back)))
        assert got == expected, label

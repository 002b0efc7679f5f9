"""The integer kernels of ``linalg``, the block composition of
``graded``, ``build_transfer_data`` and every zero-map item (the side
conditions, the three of ``check_bv_axioms`` and the trivialization
composites) against the references in ``hodge_oracle.py``: every value,
verdict and witness must be the same."""

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import bv_oracle
import hodge_oracle
from bvhy import linalg
from bvhy.bv import BVAlgebra, check_bv_axioms
from bvhy.elements import nonzero_entries, to_block
from bvhy.graded import Bidegree, BigradedSpace, compose
from bvhy.hodge import (TransferData, build_transfer_data,
                        check_side_conditions,
                        check_strong_trivialization_composites)
from bvhy.rational import GradedMap, from_blocks
from bvhy.serialize import algebra_from_json, gram_from_entries

F = Fraction
POOL = (0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4), F(7, 6))


def _random_matrix(rng, rows, cols):
    """Random entries, or a product of random factors of a random inner
    size (so often rank-deficient); some rows are zeroed out."""
    if rng.random() < 0.5:
        m = [[F(rng.choice(POOL)) for _ in range(cols)] for _ in range(rows)]
    else:
        inner = rng.randint(0, min(rows, cols))
        u = [[F(rng.choice(POOL)) for _ in range(inner)] for _ in range(rows)]
        v = [[F(rng.choice(POOL)) for _ in range(cols)] for _ in range(inner)]
        m = [[sum((u[i][t] * v[t][j] for t in range(inner)), F(0))
              for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            m[i] = [F(0)] * cols
    return m


def test_kernels_match_fraction_reference():
    rng = random.Random(5)
    seen = {"deficient": 0, "zero row": 0, "non-integer": 0, "inverse": 0,
            "singular": 0}
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = _random_matrix(rng, rows, cols)
        b = _random_matrix(rng, cols, rng.randint(1, 6))
        red, pivots = hodge_oracle.rref(a)
        ints = to_block(a)[0]
        reduced, got_pivots = linalg.rref(ints, cols)
        assert got_pivots == pivots
        assert [[F(x, row[c]) for x in row] for row, c in
                zip(reduced, pivots)] == red[:len(pivots)]
        kernel, free = linalg.kernel(ints, cols)
        assert kernel == to_block(hodge_oracle.kernel_basis(a))
        assert free == [c for c in range(cols) if c not in pivots]
        assert hodge_oracle.to_matrix(kernel) == hodge_oracle.kernel_basis(a)
        product = linalg.mul(to_block(a), to_block(b))
        assert hodge_oracle.to_matrix(product) == hodge_oracle.mat_mul(a, b)
        seen["deficient"] += len(pivots) < min(rows, cols)
        seen["zero row"] += any(not any(row) for row in a)
        seen["non-integer"] += any(x.denominator > 1 for row in red for x in row)
        square = [row[:rows] + [F(0)] * (rows - len(row)) for row in a]
        rhs = _random_matrix(rng, rows, rng.randint(1, 6))
        try:
            expected = hodge_oracle.inverse(square)
        except ValueError:
            seen["singular"] += 1
            with pytest.raises(ValueError):
                linalg.solve(to_block(square), linalg.scalar(rows, 1))
        else:
            seen["inverse"] += 1
            solved = linalg.solve(to_block(square), to_block(rhs))
            assert hodge_oracle.to_matrix(solved) == \
                hodge_oracle.mat_mul(expected, rhs)
    assert all(count >= 20 for count in seen.values()), seen


def test_compose_matches_fraction_reference():
    rng = random.Random(9)
    space = BigradedSpace([(f"x{i}", Bidegree(0, i % 3)) for i in range(9)])
    by_deg = {deg: space.names_at(deg) for deg in space.occupied_bidegrees()}
    nonzero = unmatched = 0
    for _ in range(50):
        f, g = (GradedMap.zero(space, space, Bidegree(0, 1)) for _ in range(2))
        for m in (f, g):
            for deg, names in by_deg.items():
                if rng.random() < 0.2:
                    continue    # no block at deg
                for src in names:
                    for tgt in by_deg.get(deg + Bidegree(0, 1), []):
                        m.set_entry(src, tgt, F(rng.choice(POOL)))
        fb, gb = hodge_oracle.to_blocks(f), hodge_oracle.to_blocks(g)
        comp = from_blocks(compose(fb, gb))
        assert comp.entries == hodge_oracle.compose(f, g).entries
        nonzero += bool(nonzero_entries(comp))
        # a block of g that lands where f has none: the product is zero
        unmatched += any(deg + gb.shift not in fb.blocks for deg in gb.blocks)
    assert nonzero >= 25 and unmatched >= 10, (nonzero, unmatched)


def _td_values(td):
    return ([(n, td.cohomology.bidegree[n]) for n in td.cohomology.names],
            [nonzero_entries(m) for m in (td.iota, td.pi, td.h, td.green)])


def _green_kinds(td, space):
    """The Green blocks of ``td`` by the kind of Laplacian block they
    invert: kernel empty (L invertible, P = 0), full (L = 0), or proper
    with a non-integer or an integer Green block."""
    kinds = Counter()
    blocks = hodge_oracle.to_blocks(td.green).blocks
    for deg in space.occupied_bidegrees():
        n, k = len(space.names_at(deg)), len(td.cohomology.names_at(deg))
        rows, den = blocks.get(deg, ([], 1))
        if k == 0:
            kinds["empty kernel"] += 1
        elif k == n:
            kinds["full kernel"] += 1
        elif any(x % den for row in rows for x in row):
            kinds["proper kernel, non-integer G"] += 1
        else:
            kinds["proper kernel, integer G"] += 1
    return kinds


def test_transfer_data_matches_reference_on_builtin_models(models):
    kinds = Counter()
    for m in models:
        td = build_transfer_data(m.algebra, m.inner_product)
        assert _td_values(td) == _td_values(hodge_oracle.build_transfer_data(
            m.algebra, m.inner_product)), m.name
        kinds += _green_kinds(td, m.algebra.space)
    # every kind of Green block the elimination can meet was compared
    for kind in ("empty kernel", "full kernel", "proper kernel, non-integer G"):
        assert kinds[kind] >= 1, kinds


def _gram(space, entries):
    """The Gram form with the ``(x, y, Fraction)`` entries."""
    return gram_from_entries([[x, y, str(v)] for x, y, v in entries], space)


def _two_term_complex(rng, n):
    """Unit plus a1..an at (1,0) and b1..bn at (1,1); d: a -> b is a
    rational map of rank about n/2; the Gram form is tridiagonal and
    not the identity."""
    names_a = [f"a{i}" for i in range(n)]
    names_b = [f"b{i}" for i in range(n)]
    space = BigradedSpace([("e", Bidegree(0, 0))]
                          + [(x, Bidegree(1, 0)) for x in names_a]
                          + [(x, Bidegree(1, 1)) for x in names_b])
    d = GradedMap.zero(space, space, Bidegree(0, 1))
    rank = n // 2
    u = [[F(rng.choice(POOL)) for _ in range(rank)] for _ in range(n)]
    v = [[F(rng.choice(POOL)) for _ in range(n)] for _ in range(rank)]
    for i, src in enumerate(names_a):
        for j, tgt in enumerate(names_b):
            d.set_entry(src, tgt, sum((u[j][t] * v[t][i] for t in range(rank)),
                                      F(0)))
    product = {("e", x): {x: F(1)} for x in space.names}
    product.update({(x, "e"): {x: F(1)} for x in space.names[1:]})
    algebra = BVAlgebra(space, d, GradedMap.zero(space, space, Bidegree(-1, 0)),
                        product, "e")
    entries = []
    for names, off in ((names_a, F(1)), (names_b, F(1, 2))):
        for i, x in enumerate(names):
            entries.append((x, x, F(rng.randint(2, 4))))
            if i + 1 < n:
                entries.append((x, names[i + 1], off))
    return algebra, _gram(space, entries)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_data_matches_reference_on_tridiagonal_gram(seed):
    rng = random.Random(seed)
    algebra, ip = _two_term_complex(rng, 7 + seed)
    td = build_transfer_data(algebra, ip)
    assert _td_values(td) == _td_values(
        hodge_oracle.build_transfer_data(algebra, ip))
    # a nonzero, non-integer homotopy: the comparison is not 0 == 0
    assert any(v.denominator > 1 for _s, _t, v in nonzero_entries(td.h))
    kinds = _green_kinds(td, algebra.space)
    assert kinds["full kernel"] == 1, kinds
    assert kinds["proper kernel, non-integer G"] == 2, kinds


def _random_invertible(rng, n):
    """A random invertible rational n x n matrix and its inverse."""
    while True:
        q = [[F(rng.choice(POOL)) for _ in range(n)] for _ in range(n)]
        try:
            return q, hodge_oracle.inverse(q)
        except ValueError:
            continue


def _complex(rng, sizes, ranks):
    """Unit plus terms t0, t1, ... of ``sizes`` elements at (1,0), (1,1),
    ...; d from term i to term i+1 has rank ``ranks[i]``.  In a standard
    basis d sends element ``ranks[i-1] + j`` of term i to element j of
    term i+1, so d^2 = 0; each term then gets a random rational basis, and
    a tridiagonal Gram form that is not the identity."""
    names = [[f"t{i}_{j}" for j in range(n)] for i, n in enumerate(sizes)]
    space = BigradedSpace([("e", Bidegree(0, 0))] + [
        (x, Bidegree(1, i)) for i, term in enumerate(names) for x in term])
    bases = [_random_invertible(rng, n) for n in sizes]
    d = GradedMap.zero(space, space, Bidegree(0, 1))
    for i, rank in enumerate(ranks):
        lo = ranks[i - 1] if i else 0
        std = hodge_oracle.zeros(sizes[i + 1], sizes[i])
        for j in range(rank):
            std[j][lo + j] = F(1)
        block = hodge_oracle.mat_mul(bases[i + 1][0], hodge_oracle.mat_mul(
            std, bases[i][1]))
        for c, src in enumerate(names[i]):
            for r, tgt in enumerate(names[i + 1]):
                d.set_entry(src, tgt, block[r][c])
    product = {("e", x): {x: F(1)} for x in space.names}
    product.update({(x, "e"): {x: F(1)} for x in space.names[1:]})
    algebra = BVAlgebra(space, d, GradedMap.zero(space, space, Bidegree(-1, 0)),
                        product, "e")
    entries = []
    for term in names:
        for j, x in enumerate(term):
            entries.append((x, x, F(rng.randint(2, 4))))
            if j + 1 < len(term):
                entries.append((x, term[j + 1], F(rng.choice((1, -1)),
                                                   rng.choice((1, 2)))))
    return algebra, _gram(space, entries)


@pytest.mark.parametrize("sizes,ranks", [
    ((5, 7, 4), (3, 2)),      # the middle term has d in and d out
    ((6, 5), (1,)), ((6, 5), (3,)), ((5, 6), (4,)),   # 0 < rank < n
    ((5, 5), (5,)), ((4, 6), (4,)), ((6, 4), (4,))],  # full rank
    ids=["three-term", "rank-1", "rank-3", "rank-4", "square-full-rank",
         "wide-full-rank", "tall-full-rank"])
def test_transfer_data_matches_reference_on_random_complexes(sizes, ranks):
    rng = random.Random(f"{sizes}{ranks}")
    algebra, ip = _complex(rng, sizes, ranks)
    td = build_transfer_data(algebra, ip)
    assert _td_values(td) == _td_values(
        hodge_oracle.build_transfer_data(algebra, ip))
    ins = (0,) + ranks
    outs = ranks + (0,)
    assert [len(td.cohomology.names_at(Bidegree(1, i)))
            for i in range(len(sizes))] == \
        [n - r_in - r_out for n, r_in, r_out in zip(sizes, ins, outs)]
    # a nonzero, non-integer homotopy and Green operator
    for m in (td.h, td.green):
        assert any(v.denominator > 1 for _s, _t, v in nonzero_entries(m))


@pytest.mark.parametrize("name", ["bracket(0,1)", "bracket(1,0)",
                                  "bracket(1,1)", "bracket(2,0)",
                                  "bracket(0,2)", "cy3"])
def test_transfer_data_matches_reference_on_bracket_models(name):
    if name == "cy3":
        algebra = bv_oracle.cy3_model()
    else:
        algebra = bv_oracle.bracket_model(tuple(int(c) for c in name[8:11:2]))
    td = build_transfer_data(algebra)
    assert nonzero_entries(td.h) and nonzero_entries(td.green)
    assert _td_values(td) == _td_values(
        hodge_oracle.build_transfer_data(algebra))


def _generator():
    """The benchmark's document generator, ``perfbench/gen.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["complex19x1", "complex19x2",
                                  "complex20x3"])
def test_transfer_data_matches_reference_on_the_validate_hodge_family(name):
    # pi is read off id - d h - h d; the reference solves (K S K^T) pi = K S
    # in Fractions (the built-in and bracket models are compared above).
    # One document of each block count, about a second each.
    doc = next(d for d in _generator().generate("validate-hodge", 0)
               if d.name == name)
    algebra, ip = algebra_from_json(doc.algebra)
    td = build_transfer_data(algebra, ip)
    assert _td_values(td) == _td_values(
        hodge_oracle.build_transfer_data(algebra, ip))
    assert any(v.denominator > 1 for _s, _t, v in nonzero_entries(td.pi))


def test_every_entry_of_h_perturbed_after_the_build_fails_a_side_condition():
    # the check composes d h + h d from td.blocks when it runs, so a change
    # to h after the build cannot hide behind anything the build kept
    algebra, ip = _two_term_complex(random.Random(4), 6)
    td = build_transfer_data(algebra, ip)
    assert check_side_conditions(td, algebra).passed
    caught = Counter()
    for rows, _den in td.blocks[2].blocks.values():
        for row in rows:
            for j in range(len(row)):
                row[j] += 1
                report = check_side_conditions(td, algebra)
                row[j] -= 1
                assert not report.passed
                caught.update(item.name for item in report.failures())
    assert caught["d h + h d = id - iota pi"] == 36, caught
    assert check_side_conditions(td, algebra).passed


def _nudged(m, src, tgt, by):
    """``m`` with its ``(src, tgt)`` entry moved by ``by``."""
    out = GradedMap(m.source, m.target, m.shift,
                    {s: dict(col) for s, col in m.entries.items()})
    out.set_entry(src, tgt, out.entries.get(src, {}).get(tgt, 0) + by)
    return out


def _with_maps(td, **maps):
    """``td`` with the maps named in ``maps`` (iota, pi or h) replaced."""
    return TransferData(td.cohomology, *(
        hodge_oracle.to_blocks(maps[k]) if k in maps else blocks
        for k, blocks in zip(("iota", "pi", "h"), td.blocks)), td.ip)


def _tampered(td, which):
    """``td`` with the first nonzero entry of its map ``which`` (h, pi or
    iota) moved by 1."""
    m = getattr(td, which)
    src, tgt, _v = nonzero_entries(m)[0]
    return _with_maps(td, **{which: _nudged(m, src, tgt, 1)})


def test_side_conditions_match_reference(models):
    """Verdicts and witnesses of every item equal the reference's, on
    valid transfer data and on data with one entry of h, pi or iota
    perturbed; each perturbation fails at least one item."""
    cases = [(m.name, m.algebra, m.inner_product) for m in models]
    cases += [(f"tridiagonal {seed}",
               *_two_term_complex(random.Random(seed), 7 + seed))
              for seed in (0, 1, 2)]
    checked = Counter()
    for name, algebra, ip in cases:
        td = build_transfer_data(algebra, ip)
        variants = [("valid", td)] + [
            (which, _tampered(td, which)) for which in ("h", "pi", "iota")
            if nonzero_entries(getattr(td, which))]
        for which, data in variants:
            report = check_side_conditions(data, algebra)
            assert report.to_dict() == hodge_oracle.check_side_conditions(
                data, algebra).to_dict(), (name, which)
            assert report.passed == (which == "valid"), (name, which)
            checked[which] += 1
    assert checked == Counter(valid=9, h=6, pi=9, iota=9), checked


_ZERO_MAP_ITEMS = ("d^2 = 0", "delta^2 = 0", "d delta + delta d = 0",
                   "delta iota = 0", "pi delta = 0", "h delta h = 0")


def _zero_map_items(reports):
    return {item.name: (item.passed, item.witness)
            for report in reports for item in report.items
            if item.name in _ZERO_MAP_ITEMS}


@pytest.mark.parametrize("item,model,which", [
    ("d^2 = 0", "bracket", "d"),
    ("delta^2 = 0", "bracket", "delta"),
    ("d delta + delta d = 0", "torus(1,1)", "d"),
    ("delta iota = 0", "torus(1,1)", "iota"),
    ("pi delta = 0", "torus(1,1)", "pi"),
    ("h delta h = 0", "torus(2,1)", "h")])
def test_bv_and_trivialization_items_match_reference(models, item, model,
                                                     which):
    """Nudge the entries of one map of ``model`` by 1/3, one at a time in
    basis order, until ``item`` fails: on every nudge, the three zero-map
    items of ``check_bv_axioms`` and the trivialization composites give
    the same ``(passed, witness)`` as the Fraction references."""
    if model == "bracket":
        a, ip = bv_oracle.bracket_model(), None
    else:
        m = next(m for m in models if m.name == model)
        a, ip = m.algebra, m.inner_product
    td = build_transfer_data(a, ip)
    maps = {"d": a.d, "delta": a.delta, "iota": td.iota, "pi": td.pi,
            "h": td.h}
    old = maps[which]
    for src in old.source.names:
        for tgt in old.target.names_at(old.source.bidegree[src] + old.shift):
            maps[which] = _nudged(old, src, tgt, F(1, 3))
            b = BVAlgebra(a.space, maps["d"], maps["delta"], a.product, a.unit)
            data = _with_maps(td, iota=maps["iota"], pi=maps["pi"],
                              h=maps["h"])
            got = _zero_map_items([check_bv_axioms(b),
                                   check_strong_trivialization_composites(
                                       data, b)])
            assert got == _zero_map_items([
                hodge_oracle.check_differentials(b),
                hodge_oracle.check_strong_trivialization_composites(data, b)
            ]), (src, tgt)
            passed, witness = got[item]
            if not passed:
                # the residual is not an integer map
                assert any("/" in v for _s, _t, v in witness)
                return
    pytest.fail(f"no nudge of {which} breaks {item}")

"""Decorated trees: syntax, canonical forms, bidegrees, enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from tree_oracle import (bidegree_shift, br, canonicalize, delta,
                         delta_trees, internal_edge_count, mul, parse_tree)
from bvhy.graded import Bidegree
from bvhy.trees import (DecoratedTree, enumerate_trees, leaf, splits,
                        unparse_tree)

F = Fraction


def _random_tree(rng, labels):
    if len(labels) == 1:
        t = leaf(labels[0])
    else:
        shuffled = list(labels)
        rng.shuffle(shuffled)
        cut = rng.randint(1, len(shuffled) - 1)
        t = DecoratedTree(rng.choice(("mul", "br")),
                          children=(_random_tree(rng, shuffled[:cut]),
                                    _random_tree(rng, shuffled[cut:])))
    if rng.random() < 0.2:
        t = delta(t)
    return t


def test_syntax_round_trip():
    for text in ["(mul (br 1 2) 3)", "(del (mul 1 2))", "1",
                 "(br (mul 1 3) (del 2))"]:
        assert unparse_tree(parse_tree(text)) == text
    rng = random.Random(0)
    for _ in range(200):
        t = _random_tree(rng, range(1, rng.randint(1, 6) + 1))
        assert parse_tree(unparse_tree(t)) == t


def test_syntax_errors():
    for bad in ["(mul 1 2", "(frob 1 2)", "()", "(mul 1 2) 3", "x", ""]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_malformed_trees_rejected():
    for bad in ["(mul 1)", "(br 1 2 3)", "(mul)", "(del 1 2)", "(del)",
                "(mul (del) 2)", "(spam 1 2)", "(leaf 1)", "(1 2)"]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_trees_compare_and_hash_by_structure():
    a = br(mul(leaf(1), leaf(2)), delta(leaf(3)))
    b = parse_tree("(br (mul 1 2) (del 3))")
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, parse_tree(unparse_tree(a))}) == 1
    for other in ["(mul (mul 1 2) (del 3))", "(br (br 1 2) (del 3))",
                  "(br (mul 1 2) (del 4))", "(br (mul 2 1) (del 3))"]:
        assert a != parse_tree(other)
    assert a != unparse_tree(a)


def test_counts_and_bidegree_examples():
    t = parse_tree("(mul (mul 1 2) 3)")        # k=3, two products
    assert bidegree_shift(t) == Bidegree(0, -1)
    t = parse_tree("(mul (br 1 2) (br 3 4))")  # k=4, l=2 strict
    assert bidegree_shift(t) == Bidegree(-2, -2)
    d = parse_tree("(del (mul 1 2))")
    assert d.count("del") == 1 and bidegree_shift(d) == Bidegree(-1, -1)


def test_trivalent_vertex_and_edge_counts():
    for t in enumerate_trees(4):
        assert t.count("mul") + t.count("br") == 3 and not t.count("del")
        assert internal_edge_count(t) == 2
    for t in enumerate_trees(5):
        assert t.count("mul") + t.count("br") == 4 and not t.count("del")
        assert internal_edge_count(t) == 3


def test_splits_put_the_smallest_label_left():
    assert list(splits((1, 2, 3))) == [((1,), (2, 3)), ((1, 2), (3,)),
                                       ((1, 3), (2,))]
    for labels in [(4,), (2, 5, 7, 9), tuple(range(1, 7))]:
        got = list(splits(labels))
        assert len(got) == 2 ** (len(labels) - 1) - 1
        assert all(A[0] == labels[0] and B and sorted(A + B) == list(labels)
                   for A, B in got)


def test_enumeration_counts_against_closed_form():
    # leaf-labeled binary shapes: (2k-3)!!, times 2^(k-1) vertex decorations
    double_fact = {2: 1, 3: 3, 4: 15, 5: 105}
    for k in range(2, 6):
        expected = double_fact[k] * 2 ** (k - 1)
        assert len(enumerate_trees(k)) == expected


def test_enumeration_matches_bruteforce_dedup_oracle():
    # oracle: generate trees from every leaf order and child arrangement,
    # canonicalize, and count distinct structures
    def all_trees(labels):
        if len(labels) == 1:
            yield leaf(labels[0])
            return
        for r in range(1, len(labels)):
            for left_set in itertools.combinations(labels, r):
                right_set = tuple(x for x in labels if x not in left_set)
                for lt in all_trees(left_set):
                    for rt in all_trees(right_set):
                        for kind in ("mul", "br"):
                            yield DecoratedTree(kind, children=(lt, rt))

    for k in (2, 3, 4):
        seen = {unparse_tree(canonicalize(t)[0])
                for t in all_trees(tuple(range(1, k + 1)))}
        ours = {unparse_tree(t) for t in enumerate_trees(k)}
        assert ours == seen


def test_k3_single_product_classes():
    # with k = 3 there are two vertices, so one product means one bracket
    trees = enumerate_trees(3, constraints={"bracket_count": 1})
    assert all(t.count("mul") == 1 for t in trees)
    assert len(trees) == 6
    shapes = {(t.kind, t.children[0].kind, t.children[1].kind) for t in trees}
    # product over bracket and bracket over product, leaf on either side
    assert ("mul", "br", "leaf") in shapes
    assert ("br", "mul", "leaf") in shapes


def test_canonicalize_idempotent_on_random_trees():
    rng = random.Random(42)
    for _ in range(1000):
        t = _random_tree(rng, range(1, rng.randint(1, 6) + 1))
        c1, s1 = canonicalize(t)
        c2, s2 = canonicalize(c1)
        assert c2 == c1
        assert s2 == F(1)
        assert sorted(c1.leaves()) == sorted(t.leaves())


def test_canonicalize_records_structural_swap_sign():
    t = mul(leaf(2), leaf(1))
    c, sign = canonicalize(t)
    assert c == mul(leaf(1), leaf(2))
    assert sign == F(-1)
    c, sign = canonicalize(mul(leaf(1), leaf(2)))
    assert sign == F(1)
    # swaps at two levels compose
    t = br(mul(leaf(3), leaf(2)), leaf(1))
    c, sign = canonicalize(t)
    assert c == br(leaf(1), mul(leaf(2), leaf(3)))
    assert sign == F(1)


def test_delta_enumeration_and_constraints():
    trees = delta_trees(2)
    keys = {unparse_tree(t) for t in trees}
    assert "(del (mul 1 2))" in keys
    assert "(mul (del 1) 2)" in keys
    assert "(del (del (mul 1 2)))" in keys
    assert len(keys) == len(trees)   # duplicate-free
    assert all(t.count("del") in (1, 2) for t in trees)
    only1 = delta_trees(2, max_delta=1)
    assert only1 and all(t.count("del") == 1 for t in only1)
    for k in (3, 4):
        trees = delta_trees(k)
        assert len({unparse_tree(t) for t in trees}) == len(trees)
        assert all(canonicalize(t) == (t, F(1)) for t in trees)


def test_enumeration_errors():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(3, constraints={"delta_count": 1})
    with pytest.raises(ValueError):
        enumerate_trees(4, constraints={"product_count": 1, "bracket_count": 1})
    with pytest.raises(ValueError):
        enumerate_trees(3, constraints={"frobnicate": 1})

"""Shared fixtures: built-in models, transfer data, and random-tree helpers.

Models and operation tables are session-scoped because their construction
(exact rational Hodge theory) dominates test runtime; every check itself
is an exact equality and does not mutate them.
"""

import random
from fractions import Fraction

import pytest

from bvhy.engine import TreeEvaluator, build_operation_table
from bvhy.models import builtin_models, torus_models
from bvhy.trees import DecoratedTree, leaf

MAX_TABLE_ARITY = 5


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion in the final report."""
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                terminalreporter.write_line(
                    f"ACCEPTANCE {status.upper()}: {name}")


@pytest.fixture(scope="session")
def models():
    return builtin_models()


@pytest.fixture(scope="session")
def toruses():
    return torus_models()


@pytest.fixture(scope="session")
def evaluators(models):
    return {m.name: TreeEvaluator(m.algebra, m.transfer_data()) for m in models}


@pytest.fixture(scope="session")
def tables(models):
    return {m.name: build_operation_table(m.algebra, m.transfer_data(),
                                          MAX_TABLE_ARITY)
            for m in models}


def _random_tree(rng: random.Random, labels, allow_delta: bool) -> DecoratedTree:
    if len(labels) == 1:
        t = leaf(labels[0])
    else:
        shuffled = list(labels)
        rng.shuffle(shuffled)
        cut = rng.randint(1, len(shuffled) - 1)
        left = _random_tree(rng, shuffled[:cut], allow_delta)
        right = _random_tree(rng, shuffled[cut:], allow_delta)
        t = DecoratedTree(rng.choice(("mul", "br")), children=(left, right))
    if allow_delta and rng.random() < 0.25:
        t = DecoratedTree("del", children=(t,))
    return t


@pytest.fixture(scope="session")
def random_tree():
    """Callable (rng, arity, allow_delta=False) -> random decorated tree."""
    def make(rng: random.Random, arity: int, allow_delta: bool = False):
        return _random_tree(rng, range(1, arity + 1), allow_delta)
    return make


@pytest.fixture(scope="session")
def random_harmonic_element():
    """Callable (rng, cohomology) -> random homogeneous element of H."""
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
            Fraction(-3), Fraction(0)]

    def make(rng: random.Random, H):
        deg = rng.choice(H.occupied_bidegrees())
        names = H.names_at(deg)
        coeffs = {n: rng.choice(pool) for n in rng.sample(
            names, k=min(len(names), rng.randint(1, 2)))}
        from bvhy.graded import Element
        return Element(H, deg, coeffs)
    return make

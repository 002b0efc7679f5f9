"""Desk-scale built-in algebras and the non-formality search.

The torus-style models transplant the operator shapes of the geometric
example (diagonal differential with integer eigenvalues, odd divergence
operator, square-zero product on nonconstant modes) into a small exact
setting.  They are not Calabi-Yau varieties; the formality statement is
exercised through the symbolic certificate on footprints instead (the
reference footprints are test fixtures), and the torus models exercise
the transfer machinery and the top/bottom degree mechanisms.

Each builder numbers its basis as it enumerates it and writes ``d``,
``delta`` and the product as ``bv.Table``s keyed by those indices,
integers over one denominator, with no ``Fraction`` in between; the
product passes ``bv.check_additivity`` on its way into ``BVAlgebra``.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .bv import BVAlgebra, Table, check_additivity, to_table
from .engine import build_operation_table
from .graded import Bidegree, BigradedSpace
from .hodge import InnerProduct, TransferData, build_transfer_data, \
    check_transfer_input
from .reporting import command_report, ratio_text
from .serialize import algebra_to_json, emit

SEARCH_ATTEMPTS = 64


class SearchExhausted(RuntimeError):
    """Raised when the non-formality search runs out of candidates."""


@dataclass
class ModelDescriptor:
    name: str
    algebra: BVAlgebra
    inner_product: Optional[InnerProduct] = None
    n: Optional[int] = None     # dimension for footprint / top-degree use
    witness: Optional[Dict] = None
    _td: Optional[TransferData] = None

    def transfer_data(self) -> TransferData:
        if self._td is None:
            self._td = build_transfer_data(self.algebra, self.inner_product)
        return self._td


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Parity sign of merging two ascending odd-generator words."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


def _subset_name(s: Tuple[int, ...]) -> str:
    return "".join(str(i) for i in s)


def _subsets(gens: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The ascending words in ``gens``, by length, then lexicographically."""
    return [s for r in range(len(gens) + 1)
            for s in itertools.combinations(gens, r)]


def build_trivial_model(generators: int) -> ModelDescriptor:
    """Exterior algebra on odd generators at (1,0); d = 0, delta = 0."""
    if generators < 1:
        raise ValueError("need at least one generator")
    subsets = _subsets(tuple(range(1, generators + 1)))
    index = {s: i for i, s in enumerate(subsets)}
    space = BigradedSpace((f"x{_subset_name(s)}", Bidegree(len(s), 0))
                          for s in subsets)
    product = {(index[s], index[t]): {index[tuple(sorted(s + t))]:
                                      _merge_sign(s, t)}
               for s in subsets for t in subsets if not set(s) & set(t)}
    algebra = BVAlgebra(space, Table({}, 1, Bidegree(0, 1)),
                        Table({}, 1, Bidegree(-1, 0)),
                        check_additivity(space, Table(product, 1)), "x")
    return ModelDescriptor(f"trivial({generators})", algebra)


def _torus_name(m: Tuple[int, ...], I: Tuple[int, ...], J: Tuple[int, ...]) -> str:
    return f"m{','.join(map(str, m))}|f{_subset_name(I)}|v{_subset_name(J)}"


def build_torus_model(n: int, mode_cutoff: int) -> ModelDescriptor:
    """Bigraded BV-algebra with torus-shaped operators.

    Basis elements are (mode, form part, polyvector part) triples
    ``w_m dzbar_I dv_J`` with m in [-cutoff, cutoff]^n.  The differential
    wedges a dzbar with eigenvalue m_j, the BV operator contracts a dv
    with eigenvalue m_j, and products of two nonconstant modes vanish
    (square-zero truncation keeps everything exactly associative).
    """
    if not 1 <= n <= 3:
        raise ValueError("n must be in [1, 3]")
    if not 0 <= mode_cutoff <= 1:
        raise ValueError("mode_cutoff must be in [0, 1]")
    coords = tuple(range(1, n + 1))
    modes = list(itertools.product(range(-mode_cutoff, mode_cutoff + 1), repeat=n))
    subsets = _subsets(coords)
    pos, size = {s: i for i, s in enumerate(subsets)}, len(subsets)
    space = BigradedSpace((_torus_name(m, I, J), Bidegree(len(J), len(I)))
                          for m in modes for I in subsets for J in subsets)

    def at(k: int, i: int, j: int) -> int:
        """The basis index of mode ``modes[k]``, form part ``subsets[i]``
        and polyvector part ``subsets[j]``."""
        return (k * size + i) * size + j

    d: Dict[int, Dict[int, int]] = {}
    delta: Dict[int, Dict[int, int]] = {}
    for k, m in enumerate(modes):
        for I in subsets:
            for J in subsets:
                src = at(k, pos[I], pos[J])
                for j in coords:
                    c = m[j - 1]
                    if c == 0:
                        continue
                    if j not in I:
                        # d inserts dzbar_j at the front of the word
                        before = sum(1 for i in I if i < j)
                        sign = -1 if before % 2 else 1
                        tgt = at(k, pos[tuple(sorted(I + (j,)))], pos[J])
                        d.setdefault(src, {})[tgt] = c * sign
                    if j in J:
                        # delta contracts dv_j; the contraction passes the
                        # form letters and the earlier polyvector letters
                        idx = J.index(j)
                        sign = -1 if (len(I) + idx) % 2 else 1
                        tgt = at(k, pos[I], pos[tuple(x for x in J if x != j)])
                        delta.setdefault(src, {})[tgt] = c * sign

    # for each word, the words disjoint from it in order, with the position
    # of their union and the sign of merging the two
    disjoint = [[(pos[t], pos[tuple(sorted(s + t))], _merge_sign(s, t))
                 for t in subsets if not set(s) & set(t)] for s in subsets]
    zero_mode = modes.index((0,) * n)
    product = {}
    for k1, k2 in itertools.product(range(len(modes)), repeat=2):
        if zero_mode not in (k1, k2):
            continue
        ksum = k2 if k1 == zero_mode else k1    # the mode of the product
        for i1, j1 in itertools.product(range(size), repeat=2):
            x = at(k1, i1, j1)
            for i2, it, sign_i in disjoint[i1]:
                # move the second form block past the first polyvector block
                if len(subsets[j1]) * len(subsets[i2]) % 2:
                    sign_i = -sign_i
                for j2, jt, sign_j in disjoint[j1]:
                    product[x, at(k2, i2, j2)] = {at(ksum, it, jt):
                                                  sign_i * sign_j}

    algebra = BVAlgebra(space, Table(d, 1, Bidegree(0, 1)),
                        Table(delta, 1, Bidegree(-1, 0)),
                        check_additivity(space, Table(product, 1)),
                        _torus_name((0,) * n, (), ()))
    return ModelDescriptor(f"torus({n},{mode_cutoff})", algebra, n=n)


def build_skew_gram_model() -> ModelDescriptor:
    """Two-step complex with a non-identity Gram matrix.

    Regression model: the transfer identities must hold in a basis where
    the inner product has off-diagonal entries.
    """
    basis = [("e", Bidegree(0, 0)),
             ("x1", Bidegree(1, 0)), ("x2", Bidegree(1, 0)),
             ("y1", Bidegree(1, 1)), ("y2", Bidegree(1, 1))]
    space = BigradedSpace(basis)
    e, x1, x2, y1, y2 = range(space.dim)
    d = Table({x1: {y1: 1}, x2: {y1: 1, y2: 1}}, 1, Bidegree(0, 1))
    product = Table({(e, n): {n: 1} for n in range(space.dim)}, 1)
    algebra = BVAlgebra(space, d, Table({}, 1, Bidegree(-1, 0)),
                        check_additivity(space, product), "e")
    gram = InnerProduct(space, {Bidegree(1, 0): ([[2, 1], [1, 1]], 1),
                                Bidegree(1, 1): ([[3, 1], [1, 2]], 1)})
    return ModelDescriptor("skew-gram", algebra, inner_product=gram)


# rationals as (numerator, denominator)
_COEFF_POOL = [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (3, 1),
               (-1, 3)]


def _witness_candidate(alpha: Tuple[int, int], beta: Tuple[int, int],
                       gamma: Tuple[int, int]) -> BVAlgebra:
    """Massey-style seven-dimensional candidate: d s = gamma a b, and the
    product s c reaches a harmonic element, so the arity-3 higher
    operation picks up pi((h(ab)) c) != 0 when all coefficients are set."""
    basis = [("e", Bidegree(0, 0)),
             ("a", Bidegree(1, 0)), ("b", Bidegree(1, 0)), ("c", Bidegree(1, 0)),
             ("p", Bidegree(2, 0)), ("s", Bidegree(2, -1)), ("w", Bidegree(3, -1))]
    space = BigradedSpace(basis)
    e, a, b, c, p, s, w = range(space.dim)
    product = {(e, n): {n: (1, 1)} for n in range(space.dim)}
    product[a, b] = {p: alpha}
    product[s, c] = {w: beta}
    # to_table drops the zero coefficients
    return BVAlgebra(space, to_table({s: {p: gamma}}, Bidegree(0, 1)),
                     Table({}, 1, Bidegree(-1, 0)),
                     check_additivity(space, to_table(product)), "e")


def search_nonformal(seed: int = 0) -> ModelDescriptor:
    """Randomized search for a model whose arity-3 higher operation is
    nonzero, read off the integer (3,0) table; the tests check each witness
    against the naive evaluator.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    for attempt in range(SEARCH_ATTEMPTS):
        alpha, beta, gamma = (rng.choice(_COEFF_POOL) for _ in range(3))
        algebra = _witness_candidate(alpha, beta, gamma)
        td, reports = check_transfer_input(algebra)
        if not all(r.passed for r in reports):
            continue
        # the table keeps nonzero columns only: any entry is a witness
        constants, den = build_operation_table(algebra, td, 3).tables[3, 0]
        if not constants:
            continue
        # the least key by harmonic names, which index order need not be
        names = td.cohomology.names
        key = min(constants, key=lambda k: [names[i] for i in k])
        output = sorted((names[t], ratio_text(v, den))
                        for t, v in constants[key].items())
        return ModelDescriptor(
            name=f"nonformal-witness(seed={seed})", algebra=algebra,
            witness={"arity": 3, "brackets": 0,
                     "inputs": [names[i] for i in key],
                     "output": dict(output), "attempt": attempt})
    raise SearchExhausted(
        f"no witness found for seed {seed} within {SEARCH_ATTEMPTS} attempts")


def cmd_search(seed: int, out: Optional[str]) -> int:
    """``bvhy search``: exit 0 with the witness model (written to ``out``
    if given), 1 if the search is exhausted."""
    started = time.monotonic()
    try:
        model = search_nonformal(seed=seed)
    except SearchExhausted as exc:
        emit(command_report("search", {}, started, passed=False,
                            error=str(exc)))
        return 1
    if out:
        emit(algebra_to_json(model.algebra, model.inner_product), out)
    emit(command_report("search", {}, started, passed=True, model=model.name,
                        witness=model.witness, out=out))
    return 0


@lru_cache(maxsize=None)
def builtin_models() -> Tuple[ModelDescriptor, ...]:
    return (
        build_trivial_model(1),
        build_trivial_model(3),
        build_torus_model(1, 0),
        build_torus_model(1, 1),
        build_torus_model(2, 1),
        build_skew_gram_model(),
    )
